"""Command-line front end.

Subcommands:

* ``generate``  sample a planted-structure hypergraph to a text file
* ``detect``    score a hypergraph file with one detection method
* ``profile``   turn a score file into a profile / intersection CSV
* ``compare``   run all four methods, merged curves plus timing table
* ``rerun``     replay a previous run from its manifest

Every run writes a JSON manifest recording the resolved options, so any
output can be reproduced later; outputs are written atomically (temp
file + rename), never partially.

Process exit.  Run as the process entry point (``main()`` with no argv:
the ``hypercp`` script, ``python -m hypercp.cli``), `main` registers
`gc.freeze` with `atexit`.  It runs before the earlier-registered
`logging.shutdown`, and the interpreter's shutdown collections then skip
every frozen object: after a ``detect`` some 40k tracked objects, most
of them loaded with numpy and scipy.  On a 1e4-node, 4e4-edge file that
cut the time from `main`'s return to the end of the process from about
80 to 17 ms (one CPU of a shared 2-vCPU host).  Streams are still
flushed and `atexit` handlers still run; every output file is closed by
its ``with`` block before `main` returns.  A caller that passes argv
(tests, `rerun`, an embedding program) keeps the collector as it was.
Rejected: `gc.disable()` (the finalizer collects anyway: 74 -> 68 ms),
`os._exit` (11 ms faster still, but it skips `atexit` and the stdio
flush) and a freeze at import time (that changes the exit of every
importer).
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import borgatti_everett, graph_nsm, umhs
from .generator import GeneratorConfig, sample
from .hypergraph import Hypergraph, XiRule, score_vector
from .ingest import read_edge_list, read_label_set, write_edge_list
from .profiles import intersection_curve, profile_curve, write_curves_csv
from .solver import SolverConfig, hypernsm

METHODS = ("hypernsm", "graphnsm", "borgatti-everett", "umhs")
_XI_CHOICES = sorted(rule.value for rule in XiRule)


def _atomic_write(path: Path, text: str) -> None:
    """Write a uniquely named temp file beside the target, then rename it
    over the target: readers never see a partial file, writers never
    share a temp file, and a failed write leaves none behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    # O_EXCL never opens an existing file; 0o666 lets the umask apply as open() does
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=1) + "\n")


def _write_manifest(path: Path, args) -> None:
    """Record every parsed option, so `rerun` replays each flag the parser has."""
    options = {k: v for k, v in vars(args).items() if k not in ("subcommand", "func")}
    _write_json(path, {"subcommand": args.subcommand, "options": options})


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=float, default=10.0, help="edge-norm exponent (default 10)")
    parser.add_argument("--p", type=float, default=11.0, help="constraint-norm exponent (default 11)")
    parser.add_argument(
        "--xi", choices=_XI_CHOICES, default="weighted",
        help="edge scaling rule (default weighted: w(e)/|e|, which is 1/|e| on unit weights)",
    )
    parser.add_argument(
        "--tol", type=float, default=1e-8,
        help="hypernsm and graphnsm: converged means cert_bound <= tol, cert_bound c/(1-c) times "
        "the last Hilbert step plus rounding, c = (q-1)/(p-1): an estimate of the max relative "
        "score error that a sparse solve can exceed by a small factor (hypercp.solver); "
        "borgatti-everett: relative 2-norm change per step (default 1e-8)",
    )
    parser.add_argument("--max-iter", type=int, default=1000)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seeds the random start of borgatti-everett and the umhs restarts; hypernsm and "
        "graphnsm start from the ones vector, so their scores do not depend on it (default 0)",
    )
    parser.add_argument("--restarts", type=int, default=5, help="umhs random restarts (default 5)")


def _detect_scores(method: str, h: Hypergraph, args) -> tuple[dict, np.ndarray, int]:
    """Run one method; returns (json payload, scores, iteration count)."""
    cfg = SolverConfig(p=args.p, q=args.q, xi=XiRule(args.xi), tol=args.tol,
                       max_iter=args.max_iter, seed=args.seed)
    if method == "umhs":
        res = umhs(h, restarts=args.restarts, seed=args.seed)
        scores = res.scores(h.n)
        payload = {
            "scores": [float(s) for s in scores],
            "hitting_set": [h.label_of(i) for i in res.hitting_set],
            "set_size": res.set_size,
        }
        return payload, scores, 1
    # built per call, so a tracer that replaced these names here is seen
    solve = {"hypernsm": hypernsm, "graphnsm": graph_nsm, "borgatti-everett": borgatti_everett}
    res = solve[method](h, cfg)
    return res.to_json_dict(), res.scores, res.iterations


def _scores_csv(h: Hypergraph, scores: np.ndarray) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node", "label", "score"])
    writer.writerows([i, h.label_of(i), repr(float(s))] for i, s in enumerate(scores))
    return out.getvalue()


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n=args.n, max_size=args.max_size, q_mu=args.q_mu,
        xi=XiRule(args.xi), seed=args.seed,
    )
    h, ranks = sample(cfg)
    out = Path(args.out)
    buf = io.StringIO()
    write_edge_list(h, buf)
    _atomic_write(out, buf.getvalue())
    sidecar = {
        "planted_perm": [int(r) for r in ranks],
        "config": {
            "n": cfg.n, "max_size": cfg.max_size, "q_mu": cfg.q_mu,
            "xi": cfg.xi.value, "seed": cfg.seed,
        },
    }
    _write_json(out.with_name(out.name + ".planted.json"), sidecar)
    _write_manifest(out.with_name(out.name + ".manifest.json"), args)
    print(f"wrote {h.n} nodes, {h.m} hyperedges to {out}")
    return 0


def cmd_detect(args) -> int:
    h = read_edge_list(args.input)
    payload, scores, _ = _detect_scores(args.method, h, args)
    out = Path(args.out)
    if args.format == "json":
        _write_json(out, payload)
    else:
        _atomic_write(out, _scores_csv(h, scores))
    _write_json(out.with_name(out.name + ".labels.json"),
                {"labels": [h.label_of(i) for i in range(h.n)]})
    _write_manifest(out.with_name(out.name + ".manifest.json"), args)
    return 0


def _load_scores(path: str, h: Hypergraph) -> np.ndarray:
    """Scores from a `detect` output file: the JSON payload, in node
    order, or the node,label,score CSV, matched to nodes by label."""
    with open(path, newline="", encoding="utf-8") as f:
        header = f.readline()
        if header.rstrip("\r\n") != "node,label,score":
            try:
                scores = json.loads(header + f.read())["scores"]
            except (KeyError, TypeError):
                raise ValueError(f"{path}: a JSON score file must hold a 'scores' list") from None
        else:
            try:
                rows = list(csv.reader(f))
                by_label = {label: float(score) for _, label, score in rows}
            except (csv.Error, ValueError):
                raise ValueError(f"{path}: rows must be node,label,score") from None
            labels = [h.label_of(i) for i in range(h.n)]
            if len(rows) != h.n or by_label.keys() != set(labels):
                raise ValueError(f"score file rows do not match the {h.n} node labels")
            scores = [by_label[lab] for lab in labels]
    try:
        return score_vector(scores, h.n)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_core(path: str, h: Hypergraph) -> list[int]:
    """Node ids of the labels in a core file, which must name one; warns about unknown labels."""
    core, missing = read_label_set(path, h)
    if missing:
        print(f"warning: {len(missing)} core labels not in hypergraph", file=sys.stderr)
    if not core:
        raise ValueError(f"{path}: core file names no node of the hypergraph")
    return core


def cmd_profile(args) -> int:
    h = read_edge_list(args.input)
    scores = _load_scores(args.scores, h)
    if args.kind == "profile":
        curve = profile_curve(h, scores, xi=XiRule(args.xi) if args.weighted else None,
                              method_label=args.method_label)
    else:
        if not args.core_file:
            raise ValueError("--kind intersection requires --core-file")
        core = _read_core(args.core_file, h)
        curve = intersection_curve(scores, core, method_label=args.method_label)
    buf = io.StringIO()
    write_curves_csv([curve], buf)
    out = Path(args.out)
    _atomic_write(out, buf.getvalue())
    _write_manifest(out.with_name(out.name + ".manifest.json"), args)
    return 0


def cmd_compare(args) -> int:
    h = read_edge_list(args.input)
    core = _read_core(args.core_file, h) if args.core_file else None
    out_dir = Path(args.out_dir)

    gamma_curves, iota_curves, timing_rows = [], [], []
    for method in METHODS:
        t0 = time.perf_counter()
        payload, scores, iters = _detect_scores(method, h, args)
        elapsed = time.perf_counter() - t0
        _write_json(out_dir / f"scores_{method}.json", payload)
        gamma_curves.append(profile_curve(h, scores, method_label=method))
        if core:
            iota_curves.append(intersection_curve(scores, core, method_label=method))
        timing_rows.append((method, elapsed, iters))

    buf = io.StringIO()
    write_curves_csv(gamma_curves, buf)
    _atomic_write(out_dir / "profiles.csv", buf.getvalue())
    if iota_curves:
        buf = io.StringIO()
        write_curves_csv(iota_curves, buf)
        _atomic_write(out_dir / "intersection.csv", buf.getvalue())

    timing = "method,wall_seconds,iterations\n" + "".join(
        f"{m},{t:.6f},{it}\n" for m, t, it in timing_rows
    )
    _atomic_write(out_dir / "timings.csv", timing)
    _write_json(out_dir / "labels.json", {"labels": [h.label_of(i) for i in range(h.n)]})
    _write_manifest(out_dir / "manifest.json", args)
    print(f"compared {len(METHODS)} methods on {args.input} -> {out_dir}")
    return 0


def cmd_rerun(args) -> int:
    with open(args.manifest, encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except ValueError as exc:
            raise ValueError(f"{args.manifest}: {exc}") from None
    sub = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if not (isinstance(sub, str) and isinstance(manifest.get("options"), dict)):
        raise ValueError(f"{args.manifest}: not a JSON object with a 'subcommand' string "
                         "and an 'options' object")
    if sub == "rerun":
        raise ValueError("manifest of a rerun cannot be replayed")
    argv = [sub]
    for key, value in manifest["options"].items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        # one token, so a value that starts with "-" is not read as a flag
        argv.append(flag if value is True else f"{flag}={value}")
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercp", description="Core-periphery detection in hypergraphs."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate", help="sample a planted-structure hypergraph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--max-size", type=int, required=True)
    g.add_argument("--q-mu", type=float, default=10.0, help="coreness sharpness exponent")
    g.add_argument("--xi", choices=_XI_CHOICES, default="reciprocal")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("detect", help="score a hypergraph with one method")
    d.add_argument("--method", choices=METHODS, default="hypernsm")
    d.add_argument("--input", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--format", choices=("json", "csv"), default="json")
    _add_solver_flags(d)
    d.set_defaults(func=cmd_detect)

    p = sub.add_parser("profile", help="profile curve from a score file")
    p.add_argument("--input", required=True)
    p.add_argument("--scores", required=True, help="score file from detect, JSON or CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("profile", "intersection"), default="profile")
    p.add_argument("--xi", choices=_XI_CHOICES, default="weighted")
    p.add_argument("--weighted", action="store_true", help="xi-weight the profile ratios")
    p.add_argument("--core-file", default=None)
    p.add_argument("--method-label", default="")
    p.set_defaults(func=cmd_profile)

    c = sub.add_parser("compare", help="run all methods and merge the curves")
    c.add_argument("--input", required=True)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--core-file", default=None)
    _add_solver_flags(c)
    c.set_defaults(func=cmd_compare)

    r = sub.add_parser("rerun", help="replay a run from its manifest")
    r.add_argument("manifest")
    r.set_defaults(func=cmd_rerun)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # the process entry point: skip the shutdown collections
        atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"hypercp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

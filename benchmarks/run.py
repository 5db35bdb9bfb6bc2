"""hypercp benchmark: three workloads, every output checked.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload detect-M --seed 1 --seconds 30 --trace 0

Workloads are ``detect-M``, ``planted-compare`` and ``p-sweep`` (see
README.md).  With ``--trace 0`` the CLI runs as a child process, one at
a time, and the library sweep runs in this process; end-to-end metrics
are reported.  With ``--trace 1`` the same op runs in this process three
times: a warm-up, once untraced and once with a span around every layer
(spans.py); per-layer metrics are reported.  ``src`` is put on the path, so the code measured
is the checkout's own.

The process and its children run on one CPU.  End-to-end op time is
reported as ``op_cal``: the mean op wall time over the mean time of a
fixed calibration run between the ops (calibrate.py), which cancels the
shared host's drift in speed.  Raw times stay in the record.

The last line of standard output is the result as one JSON object.  The
full record (environment, input digests, every sample, every problem)
is written to .bench_work/results/.  The exit code is 0 whenever a
result is printed, whether or not operations failed.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; children inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.stats import kendalltau  # noqa: E402

from calibrate import Calibration, child_seconds  # noqa: E402
from checks import check_curves_csv, check_hitting_set, check_scores, check_solve, incidence  # noqa: E402
from inputs import arrays_sha256, edge_list_text, planted_sample, random_edges, sha256  # noqa: E402
from spans import Tracer, layer_table  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

Q, P = 10.0, 11.0
Q_MU = 10.0
SWEEP_PS = (12.0, 11.0, 10.5, 10.1)
METHODS = ("hypernsm", "graphnsm", "borgatti-everett", "umhs")
MIN_OPS = 2
RUN_LIMIT_S = 170.0  # a child still running then is killed
NPROC = len(os.sched_getaffinity(0))


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Instance sizes; the command line always uses the defaults."""

    detect_n: int = 10_000
    detect_m_edges: int = 40_000
    planted_n: int = 40
    planted_max_size: int = 4
    core: int = 10
    sweep_n: int = 5_000
    sweep_m: int = 15_000
    setup_repeats: int = 5


def p_key(p: float) -> str:
    return "p" + f"{p:g}".replace(".", "_")


def summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples
    beyond it (none below 11 samples), with the sample count."""
    s = sorted(samples)
    hi = None
    if len(s) >= 11:
        hi = {"percentile": 100.0 * (len(s) - 10) / len(s), "value": s[len(s) - 11]}
    return {"median": statistics.median(s), "high": hi, "n": len(s)}


def by_node(values, labels, n: int) -> np.ndarray:
    """Scores indexed by the benchmark's node ids (the labels it wrote)."""
    nodes = np.asarray(labels).astype(np.int64)
    if len(values) != n or not np.array_equal(np.sort(nodes), np.arange(n)):
        raise ValueError(f"labels are not the {n} input nodes")
    x = np.zeros(n)
    x[nodes] = np.asarray(values, dtype=np.float64)
    return x


class Run:
    """One invocation: inputs, op loop, checks and collected samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> None:
        self.workload, self.seed, self.seconds, self.trace, self.sizes = workload, seed, seconds, trace, sizes
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.attempted = self.failed = self.malformed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.inputs: dict[str, str] = {}
        self.tracer: Tracer | None = None
        self.calibration: Calibration | None = None
        self._hypercp = None

    def library(self):
        """hypercp from the checkout, imported into this process."""
        if self._hypercp is None:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            import hypercp
            import hypercp.cli  # noqa: F401

            self._hypercp = hypercp
        return self._hypercp

    def checked(self, what: str, check, *args) -> None:
        """Count one op; `check` returns (problems, misses)."""
        try:
            problems, misses = check(*args)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems, misses = [f"unreadable output: {exc!r}"], []
        self.attempted += 1
        if problems or misses:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems + misses))
        if problems:
            self.malformed += 1

    def cold_import_s(self) -> float:
        code = "import time; t = time.perf_counter(); import hypercp; print(time.perf_counter() - t)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=self.env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(out.stdout)

    def cli(self, argv) -> tuple[float, float | None, int]:
        """Run `hypercp <argv>`; returns (wall s, peak RSS MB or None, exit code)."""
        argv = [str(a) for a in argv]
        if self.trace:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                rc = self.library().cli.main(argv)
                return time.perf_counter() - t0, None, rc
        with open(self.dir / "children.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hypercp.cli", *argv],
                env=self.env, cwd=ROOT, stdout=log, stderr=log,
            )
            timer = threading.Timer(max(0.0, self.started + RUN_LIMIT_S - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def calibrate(self) -> None:
        """Time one calibration into samples["cal_s"]: a child process for
        workloads whose op runs the CLI, in-process passes otherwise.  A
        no-op until repeat() starts."""
        if self.calibration is None:
            return
        if self.workload in CLI_WORKLOADS:
            self.samples["cal_s"].append(child_seconds(self.env))
        else:
            self.samples["cal_s"] += self.calibration.passes()

    def repeat(self, op) -> list[float]:
        """Ops back to back until the next one would end past --seconds,
        and at least MIN_OPS of them, with a calibration before the first
        op and after each op."""
        self.calibration = Calibration()
        durations: list[float] = []
        t0 = time.perf_counter()
        self.calibrate()
        block = time.perf_counter() - t0
        while len(durations) < MIN_OPS or (
            time.perf_counter() - t0 + statistics.median(durations) + block <= self.seconds
        ):
            durations.append(op(len(durations)))
            self.calibrate()
        return durations


# ---------------------------------------------------------------- workloads
# Each sets up its inputs and returns op(i) -> seconds of op i.


def detect_m(run: Run):
    s = run.sizes
    members, ptr = random_edges(np.random.default_rng([1, run.seed]), s.detect_n, s.detect_m_edges)
    text = edge_list_text(members, ptr)
    path = run.dir / "M.txt"
    path.write_bytes(text)
    run.inputs["M.txt"] = sha256(text)
    b = incidence(members, ptr, s.detect_n)
    xi = 1.0 / np.diff(ptr)

    def check(rc, out):
        if rc:
            return [f"exit code {rc}"], []
        payload = json.loads(out.read_text())
        labels = json.loads(out.with_name(out.name + ".labels.json").read_text())["labels"]
        x = by_node(payload["scores"], labels, s.detect_n)
        problems, misses, cert = check_solve(x, payload["converged"], b, xi, Q, P)
        run.samples["cert_bound"].append(cert)
        return problems, misses

    def op(i):
        out = run.dir / f"op{i}" / "scores.json"
        wall, rss, rc = run.cli([
            "detect", "--method", "hypernsm", "--input", path, "--out", out,
            "--xi", "reciprocal", "--q", Q, "--p", P, "--seed", run.seed,
        ])
        run.samples["detect_s"].append(wall)
        if rss is not None:
            run.samples["detect_rss_mb"].append(rss)
            run.samples["op_rss_mb"].append(rss)
        run.checked(f"op {i} detect", check, rc, out)
        return wall

    return op


def check_compare(run: Run, rc: int, out: Path, members, ptr, ranks) -> tuple[list[str], list[str]]:
    if rc:
        return [f"exit code {rc}"], []
    n = ranks.size
    labels = json.loads((out / "labels.json").read_text())["labels"]
    b = incidence(members, ptr, n)
    pairs = sp.triu(b.T @ b, k=1).tocoo()
    clique = incidence(np.column_stack([pairs.row, pairs.col]).ravel(), np.arange(0, 2 * pairs.nnz + 1, 2), n)
    active = np.diff(b.tocsc().indptr) > 0
    problems, misses, scores = [], [], {}
    for method in METHODS:
        payload = json.loads((out / f"scores_{method}.json").read_text())
        x = scores[method] = by_node(payload["scores"], labels, n)
        got, miss = [], []
        if method == "hypernsm":
            got, miss, cert = check_solve(x, payload["converged"], b, 1.0 / np.diff(ptr), Q, P)
            run.samples["cert_bound"].append(cert)
        elif method == "graphnsm":
            got, miss, _ = check_solve(x, payload["converged"], clique, pairs.data, Q, P)
        elif method == "borgatti-everett":
            got = check_scores(x, active, 2.0)
            miss = [] if payload["converged"] else ["converged is false"]
        else:
            got = check_hitting_set(b, np.asarray(payload["hitting_set"]).astype(np.int64))
        problems += [f"{method}: {p}" for p in got]
        misses += [f"{method}: {p}" for p in miss]
    problems += check_curves_csv(out / "profiles.csv", "gamma", METHODS, n)
    problems += check_curves_csv(out / "intersection.csv", "iota", METHODS, n)
    with open(out / "timings.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if [r["method"] for r in rows] != list(METHODS):
        problems.append("timings.csv does not list the four methods")
    for r in rows:
        run.samples[f"timings_csv.{r['method']}_s"].append(float(r["wall_seconds"]))
    run.samples["planted_tau"].append(float(kendalltau(scores["hypernsm"], n - ranks).statistic))
    return problems, misses


def planted_compare(run: Run):
    s = run.sizes
    n, k = s.planted_n, s.planted_max_size

    def check_generate(rc, path, expected):
        if rc:
            return [f"exit code {rc}"], []
        ok = sha256(path.read_bytes()) == expected
        return ([] if ok else ["edge list differs from the model's sample for this seed"]), []

    members, ptr, ranks = planted_sample(n, k, Q_MU, run.seed)
    expected = sha256(edge_list_text(members, ptr, b" # w=1.0"))
    core_nodes = np.flatnonzero(ranks <= s.core)
    core_text = edge_list_text(core_nodes, np.arange(core_nodes.size + 1))
    (run.dir / "core.txt").write_bytes(core_text)
    run.inputs["planted.txt.expected"] = expected
    run.inputs["core.txt"] = sha256(core_text)

    def op(i):
        d = run.dir / f"op{i}"
        d.mkdir(parents=True, exist_ok=True)
        gen = d / "planted.txt"
        g_wall, g_rss, rc = run.cli([
            "generate", "--n", n, "--max-size", k, "--q-mu", Q_MU, "--xi", "reciprocal",
            "--seed", run.seed, "--out", gen,
        ])
        run.checked(f"op {i} generate", check_generate, rc, gen, expected)
        c_wall, c_rss, rc = run.cli([
            "compare", "--input", gen, "--out-dir", d / "cmp", "--core-file", run.dir / "core.txt",
            "--xi", "reciprocal", "--q", Q, "--p", P, "--seed", run.seed,
        ])
        run.checked(f"op {i} compare", check_compare, run, rc, d / "cmp", members, ptr, ranks)
        run.samples["generate_s"].append(g_wall)
        run.samples["compare_s"].append(c_wall)
        if c_rss is not None:
            run.samples["compare_rss_mb"].append(c_rss)
            run.samples["op_rss_mb"].append(max(g_rss, c_rss))
        return g_wall + c_wall

    return op


def p_sweep(run: Run):
    s = run.sizes
    rng = np.random.default_rng([3, run.seed])
    members, ptr = random_edges(rng, s.sweep_n, s.sweep_m)
    weights = rng.uniform(0.5, 2.0, size=ptr.size - 1)
    run.inputs["sweep.arrays"] = arrays_sha256(members, ptr, weights)
    b = incidence(members, ptr, s.sweep_n)
    xi = weights / np.diff(ptr)
    hc = run.library()
    edges = [e.tolist() for e in np.split(members, ptr[1:-1])]
    wlist = weights.tolist()
    for _ in range(1 if run.trace else s.setup_repeats):
        t0 = time.perf_counter()
        h = hc.Hypergraph(s.sweep_n, edges, weights=wlist)
        run.samples["build_s"].append(time.perf_counter() - t0)

    def check(res, p):
        problems, misses, cert = check_solve(res.scores, res.converged, b, xi, Q, p)
        run.samples["cert_bound"].append(cert)
        return problems, misses

    def op(i):
        """One pass over the p grid, calibrating between solves; the
        pass's time is the sum of its solve times."""
        solves = []
        for j, p in enumerate(SWEEP_PS):
            if j:
                run.calibrate()
            t = time.perf_counter()
            res = hc.hypernsm(h, hc.SolverConfig(p=p, q=Q, xi=hc.XiRule.WEIGHTED_RECIPROCAL, seed=run.seed))
            solves.append((p, res, time.perf_counter() - t))
        wall = sum(solve_s for _, _, solve_s in solves)
        for p, res, solve_s in solves:
            run.samples[f"solve_s.{p_key(p)}"].append(solve_s)
            run.samples[f"iterations.{p_key(p)}"].append(res.iterations)
            run.checked(f"op {i} hypernsm p={p:g}", check, res, p)
        run.samples["sweep_s"].append(wall)
        run.samples["op_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        return wall

    return op


WORKLOADS = {"detect-M": detect_m, "planted-compare": planted_compare, "p-sweep": p_sweep}
CLI_WORKLOADS = {"detect-M", "planted-compare"}


# ---------------------------------------------------------------- reporting


def code_info() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        revision = None
    return {"git_revision": revision, "src_sha256": digest.hexdigest(), "src_lines": lines}


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end(run: Run, imports: list[float], durations: list[float]) -> dict:
    builds = run.samples.get("build_s", [])
    run.samples["import_s"] = imports
    run.samples["op_s"] = durations
    setup = statistics.median(imports) + (statistics.median(builds) if builds else 0.0)
    return {
        "setup_s": setup,
        # Means, not medians: the host switches between speed states
        # within a run, and a mean weights each state by its share of
        # time on both sides of the ratio.
        "op_cal": statistics.fmean(durations) / statistics.fmean(run.samples["cal_s"]),
        "op_rss_mb": statistics.median(run.samples["op_rss_mb"]),
        "ok_share": 1.0 - run.failed / run.attempted,
    }


def compare_crosscheck(spans, timings: dict[str, float]) -> dict:
    """Pairs compare's own per-method timer with the traced spans.

    In compare the per-method spans are followed by that method's curve
    spans, so the top-level spans between two runs of curve spans
    belong to one method."""
    buckets, current, started = [], 0.0, False
    for s in spans:
        if s.parent is not None:
            continue
        if s.name == "ingest.read_label_set":
            started = True
        elif started and s.name.startswith("profiles."):
            if current:
                buckets.append(current)
            current = 0.0
        elif started:
            current += s.seconds
    return {
        m: {"timings_csv_s": timings.get(m), "traced_s": t} for m, t in zip(METHODS, buckets)
    }


def per_layer(run: Run, traced: float, untraced: float, first_span: int, probe_s: float, first_cert: int) -> dict:
    spans = run.tracer.spans
    table = layer_table(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    solves = [s for s in spans if s.name == "solver.hypernsm"]
    inits = [s for s in spans if s.name == "hypergraph.init"]
    iterations = sum(s.info["iterations"] for s in solves)
    gradient = [s.info["gradient_s"] for s in solves]
    per_nnz = [s.info["gradient_s"] / s.info["nnz"] for s in solves]
    init_nnz = sum(s.info["nnz"] for s in inits)
    top = [s for s in spans[first_span:] if s.parent is None]
    metrics = {
        "ingest.read_edge_list_s": total("ingest.read_edge_list"),
        "ingest.parse_self_s": table.get("ingest.read_edge_list", {}).get("self_s", 0.0),
        "ingest.write_edge_list_s": total("ingest.write_edge_list"),
        "hypergraph.init_s": total("hypergraph.init"),
        "hypergraph.init_ns_per_nnz": total("hypergraph.init") / init_nnz * 1e9 if init_nnz else 0.0,
        "generator.sample_s": total("generator.sample"),
        "solver.hypernsm_s": total("solver.hypernsm"),
        "solver.iterations": iterations,
        "solver.iter_ms": total("solver.hypernsm") / iterations * 1e3 if iterations else 0.0,
        "solver.gradient_ms": statistics.median(gradient) * 1e3 if gradient else 0.0,
        "solver.gradient_ns_per_nnz": statistics.median(per_nnz) * 1e9 if per_nnz else 0.0,
        "solver.cert_bound": max(run.samples["cert_bound"][first_cert:], default=0.0),
        "profiles.profile_curve_s": total("profiles.profile_curve"),
        "profiles.intersection_curve_s": total("profiles.intersection_curve"),
        "baselines.clique_expansion_s": total("baselines.clique_expansion"),
        "baselines.graph_nsm_s": total("baselines.graph_nsm"),
        "baselines.graph_nsm_iterations": sum(s.info["iterations"] for s in spans if s.name == "baselines.graph_nsm"),
        "baselines.borgatti_everett_s": total("baselines.borgatti_everett"),
        "baselines.borgatti_everett_iterations": sum(
            s.info["iterations"] for s in spans if s.name == "baselines.borgatti_everett"
        ),
        "baselines.umhs_s": total("baselines.umhs"),
        "cli.other_s": traced - probe_s - sum(s.seconds for s in top),
        "code.src_lines": code_info()["src_lines"],
        "trace.overhead_s": traced - probe_s - untraced,
    }
    for p in SWEEP_PS:
        metrics[f"solver.iterations.{p_key(p)}"] = sum(s.info["iterations"] for s in solves if s.info["p"] == p)
    return metrics


def execute(run: Run, spec: dict) -> tuple[dict, dict]:
    """Run the workload; returns (result line, full record)."""
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    record: dict = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace)}
    if run.trace:
        run.tracer = Tracer(run.library())
        run.tracer.recording = True
        op = WORKLOADS[run.workload](run)
        run.tracer.recording = False
        op(0)  # warm-up: the first op in a process pays one-off costs
        untraced = op(0)
        first_span, first_cert, probe0 = len(run.tracer.spans), len(run.samples["cert_bound"]), run.tracer.probe_s
        run.tracer.recording = True
        traced = op(0)
        run.tracer.recording = False
        run.tracer.uninstall()
        metrics = per_layer(run, traced, untraced, first_span, run.tracer.probe_s - probe0, first_cert)
        record["spans"] = layer_table(run.tracer.spans)
        if run.workload == "planted-compare":
            timings = {m: run.samples[f"timings_csv.{m}_s"][-1] for m in METHODS if f"timings_csv.{m}_s" in run.samples}
            record["timings_crosscheck"] = compare_crosscheck(run.tracer.spans[first_span:], timings)
        names = spec["per_layer"]
    else:
        imports = [run.cold_import_s() for _ in range(run.sizes.setup_repeats)]
        op = WORKLOADS[run.workload](run)
        metrics = end_to_end(run, imports, run.repeat(op))
        names = spec["end_to_end"]
    result = {
        "correct": run.malformed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    named = {k: summary(v) for k, v in run.samples.items()}
    named["fail_share"] = run.failed / run.attempted
    if run.samples.get("planted_tau"):
        named["planted_tau"]["mean"] = statistics.fmean(run.samples["planted_tau"])
    record.update(
        result=result, named=named, samples=dict(run.samples), inputs=run.inputs,
        problems=run.problems, code=code_info(), environment=environment(),
        wall_s=time.perf_counter() - run.started,
    )
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Each vCPU of a shared host runs at its own, changing speed.  One CPU
    # for this process and its children keeps the ops and the calibration
    # passes on the same one, so the calibration tracks the ops.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "hypercp" / "__init__.py").is_file():
        print(f"benchmark: no hypercp sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = execute(run, spec)
    shutil.rmtree(run.dir, ignore_errors=True)
    out = WORK / "results" / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in run.problems:
        print(f"failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name in ("op_s", "cal_s"):
        if name in record["named"]:
            print(f"{name} median = {record['named'][name]['median']!r} s (not calibrated)")
    print(f"attempted {run.attempted}, failed {run.failed}; record in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import csv
import errno
import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypercp
from hypercp import Hypergraph, hypercycle, read_edge_list, write_edge_list
from hypercp.cli import _atomic_write, build_parser, main

from helpers import random_hypergraph


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def hypercycle_file(tmp_path):
    h, overlaps = hypercycle()
    path = tmp_path / "hypercycle.txt"
    write_edge_list(h, path)
    return path


def read_curves(path):
    curves = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            key = "gamma" if "gamma" in row else "iota"
            curves.setdefault(row["method"], []).append((int(row["k"]), float(row[key])))
    return {m: [v for _, v in sorted(vals)] for m, vals in curves.items()}


class TestGenerate:
    def test_writes_hypergraph_and_sidecars(self, tmp_path):
        out = tmp_path / "sample.txt"
        assert run(["generate", "--n", 8, "--max-size", 3, "--seed", 5, "--out", out]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "sample.txt.planted.json").read_text())
        assert sorted(sidecar["planted_perm"]) == list(range(1, 9))
        assert sidecar["config"]["n"] == 8
        manifest = json.loads((tmp_path / "sample.txt.manifest.json").read_text())
        assert manifest["subcommand"] == "generate"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["generate", "--n", 8, "--max-size", 3, "--seed", 5, "--out", a])
        run(["generate", "--n", 8, "--max-size", 3, "--seed", 5, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_gz_output_is_gzip_and_detect_reads_it(self, tmp_path):
        # it used to write plain text under the .gz name, which detect could not read
        argv = ["generate", "--n", 8, "--max-size", 3, "--seed", 1, "--out"]
        plain, packed, again = tmp_path / "g.txt", tmp_path / "g.txt.gz", tmp_path / "again" / "g.txt.gz"
        for out in (plain, packed, again):
            assert run([*argv, out]) == 0
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert again.read_bytes() == packed.read_bytes()
        assert run(["detect", "--input", packed, "--out", tmp_path / "s.json"]) == 0


class TestDetect:
    def test_json_schema_and_determinism(self, hypercycle_file, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for out in (out1, out2):
            code = run(["detect", "--method", "hypernsm", "--input", hypercycle_file,
                        "--out", out, "--seed", 7])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert set(payload) == {"scores", "eigenvalue", "iterations", "converged", "residuals"}
        assert payload["converged"] is True
        labels = json.loads((tmp_path / "s1.json.labels.json").read_text())
        assert len(labels["labels"]) == 28

    def test_umhs_payload(self, hypercycle_file, tmp_path):
        out = tmp_path / "u.json"
        assert run(["detect", "--method", "umhs", "--input", hypercycle_file, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"scores", "hitting_set", "set_size"}
        assert payload["set_size"] == len(payload["hitting_set"])

    def test_csv_format(self, hypercycle_file, tmp_path):
        out = tmp_path / "s.csv"
        run(["detect", "--method", "borgatti-everett", "--input", hypercycle_file,
             "--out", out, "--format", "csv"])
        lines = out.read_text().splitlines()
        assert lines[0] == "node,label,score"
        assert len(lines) == 29

    def test_csv_quotes_labels(self, tmp_path):
        h = Hypergraph(4, [[0, 1, 2], [2, 3]], labels=["c,1", 'a"b', "x", "y"])
        graph, out = tmp_path / "h.txt", tmp_path / "s.csv"
        write_edge_list(h, graph)
        assert run(["detect", "--input", graph, "--out", out, "--format", "csv"]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert all(len(row) == 3 for row in rows)
        assert [row[1] for row in rows[1:]] == h.labels

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = run(["detect", "--input", tmp_path / "nope.txt", "--out", tmp_path / "o.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gz_input_fails_cleanly(self, tmp_path, capsys, damage):
        # each ended in a traceback: EOFError for a stream cut short,
        # zlib.error for deflate data that does not decode
        packed = gzip.compress(b"a b\nb c\n" * 100, mtime=0)
        if damage == "truncated":
            data = packed[:len(packed) // 2]
        else:  # 0x07 after the 10-byte header: a final block of the reserved type 3
            data = packed[:10] + b"\x07" + packed[11:]
        graph = tmp_path / "g.txt.gz"
        graph.write_bytes(data)
        assert run(["detect", "--input", graph, "--out", tmp_path / "o.json"]) == 1
        assert "hypercp: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["hypernsm", "borgatti-everett"])
    def test_merged_weight_past_float_range_fails_cleanly(self, tmp_path, capsys, method):
        # Borgatti-Everett wrote NaN scores with exit 0; HyperNSM failed in
        # a least-squares solve ("SVD did not converge")
        graph = tmp_path / "g.txt"
        graph.write_text("a b # w=1e308\na b # w=1e308\nb c\n")
        assert run(["detect", "--method", method, "--input", graph, "--out", tmp_path / "o.json"]) == 1
        assert "merged weight of equal edges must be finite" in capsys.readouterr().err

    def test_kernel_overflow_fails_cleanly(self, tmp_path, capsys):
        # a T step's kernel term overflows on this path: the solve failed in
        # a least-squares solve ("SVD did not converge") after LAPACK errors
        graph = tmp_path / "g.txt"
        graph.write_text("a b # w=2e-132\nb c # w=3e179\nc d # w=3e126\nd e # w=6e-138\n")
        out = tmp_path / "o.json"
        assert run(["detect", "--xi", "unit", "--p", "10.1", "--input", graph, "--out", out]) == 1
        assert "overflows the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_no_partial_output_on_failure(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\nc c\n")
        out = tmp_path / "o.json"
        assert run(["detect", "--input", bad, "--out", out]) == 1
        assert not out.exists()


class TestProfileCommand:
    def test_profile_csv(self, hypercycle_file, tmp_path):
        scores = tmp_path / "s.json"
        run(["detect", "--input", hypercycle_file, "--out", scores])
        out = tmp_path / "curve.csv"
        code = run(["profile", "--input", hypercycle_file, "--scores", scores,
                    "--out", out, "--method-label", "hypernsm"])
        assert code == 0
        curves = read_curves(out)
        assert curves["hypernsm"][27] == 1.0

    @pytest.mark.parametrize("kind", ["profile", "intersection"])
    def test_csv_scores_match_json_route(self, tmp_path, kind):
        # labels that are not node ids, one holding a comma: rows match by label
        h = Hypergraph(5, [[0, 1, 2], [1, 3], [2, 3, 4], [0, 4]], weights=[1.0, 2.0, 0.5, 1.5],
                       labels=["e", "c,1", "a", "d", "b"])
        graph, core = tmp_path / "h.txt", tmp_path / "core.txt"
        write_edge_list(h, graph)
        core.write_text("a\nc,1\n")
        curves = []
        for fmt in ("json", "csv"):
            scores, out = tmp_path / f"s.{fmt}", tmp_path / f"curve_{fmt}.csv"
            assert run(["detect", "--method", "borgatti-everett", "--input", graph,
                        "--out", scores, "--format", fmt]) == 0
            assert run(["profile", "--input", graph, "--scores", scores, "--out", out,
                        "--kind", kind, "--core-file", core, "--weighted"]) == 0
            curves.append(out.read_bytes())
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_gz_scores_and_curve(self, hypercycle_file, tmp_path, fmt):
        curves = []
        for suffix in ("", ".gz"):
            scores, out = tmp_path / f"s.{fmt}{suffix}", tmp_path / f"curve.csv{suffix}"
            assert run(["detect", "--input", hypercycle_file, "--out", scores, "--format", fmt]) == 0
            assert run(["profile", "--input", hypercycle_file, "--scores", scores, "--out", out]) == 0
            curves.append(out.read_bytes())
        assert gzip.decompress(curves[1]) == curves[0]

    def test_bad_csv_scores_rejected(self, hypercycle_file, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        run(["detect", "--input", hypercycle_file, "--out", scores, "--format", "csv"])
        scores.write_text("".join(scores.read_text().splitlines(keepends=True)[:-1]))
        code = run(["profile", "--input", hypercycle_file, "--scores", scores,
                    "--out", tmp_path / "c.csv"])
        assert code == 1
        assert "do not match the 28 node labels" in capsys.readouterr().err
        scores.write_text("node,label,score\n0;0;1.0\n")
        assert run(["profile", "--input", hypercycle_file, "--scores", scores,
                    "--out", tmp_path / "c.csv"]) == 1
        assert "rows must be node,label,score" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("s.json", '{"scores": [NaN' + ", 1.0" * 27 + "]}"),
        ("s.csv", "node,label,score\n0,0,nan\n" + "".join(f"{i},{i},1.0\n" for i in range(1, 28))),
    ], ids=["json", "csv"])
    def test_non_finite_scores_rejected(self, hypercycle_file, tmp_path, capsys, name, text):
        # a NaN score used to give exit 0 and a curve
        (tmp_path / name).write_text(text)
        assert run(["profile", "--input", hypercycle_file, "--scores", tmp_path / name,
                    "--out", tmp_path / "c.csv"]) == 1
        assert f"{name}: score vector must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["hypercycle.txt", name])

    @pytest.mark.parametrize("payload", ["{}", "[1, 2]", '"scores"', '{"scores": {"0": 1}}'])
    def test_json_scores_without_score_list_rejected(self, hypercycle_file, tmp_path, capsys,
                                                      payload):
        scores = tmp_path / "s.json"
        scores.write_text(payload)
        assert run(["profile", "--input", hypercycle_file, "--scores", scores,
                    "--out", tmp_path / "c.csv"]) == 1
        assert "hypercp: error:" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_intersection_kind(self, hypercycle_file, tmp_path):
        h, overlaps = hypercycle()
        scores = tmp_path / "s.json"
        run(["detect", "--input", hypercycle_file, "--out", scores])
        core = tmp_path / "core.txt"
        core.write_text("\n".join(str(i) for i in overlaps) + "\n")
        out = tmp_path / "iota.csv"
        code = run(["profile", "--input", hypercycle_file, "--scores", scores, "--out", out,
                    "--kind", "intersection", "--core-file", core, "--method-label", "hypernsm"])
        assert code == 0
        curves = read_curves(out)
        # solver puts the 5 overlap nodes on top: intersection is 1
        # through k=5 and |C|/n at the end
        assert curves["hypernsm"][:5] == [1.0] * 5
        assert curves["hypernsm"][27] == pytest.approx(5 / 28)

    def test_weighted_profile_on_random_weighted_files(self, tmp_path):
        # seeds 5, 10-13 and 19 failed with "curve values must lie in [0, 1]"
        # before the producer clamped its rounding
        for seed in range(20):
            rng = np.random.default_rng(seed)
            h = random_hypergraph(rng, 12, 20, weighted=True)
            graph, scores = tmp_path / f"h{seed}.txt", tmp_path / f"s{seed}.json"
            write_edge_list(h, graph)
            scores.write_text(json.dumps({"scores": rng.uniform(size=12).tolist()}))
            out = tmp_path / f"curve{seed}.csv"
            assert run(["profile", "--input", graph, "--scores", scores, "--out", out,
                        "--weighted"]) == 0
            values = read_curves(out)[""]
            assert max(values) <= 1.0 and values[-1] == pytest.approx(1.0, rel=1e-12)


class TestAtomicWrite:
    def test_unique_temp_file_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.json"
        stale = tmp_path / "out.json.tmp"
        stale.write_text("another writer's data")
        _atomic_write(target, "payload\n")
        assert target.read_text() == "payload\n"
        assert stale.read_text() == "another writer's data"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.tmp"]
        assert target.stat().st_mode == stale.stat().st_mode  # the mode open() gives

    def test_failed_write_removes_temp_and_keeps_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            _atomic_write(target, None)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestCompare:
    def test_merged_outputs(self, hypercycle_file, tmp_path):
        out_dir = tmp_path / "cmp"
        code = run(["compare", "--input", hypercycle_file, "--out-dir", out_dir, "--seed", 3])
        assert code == 0
        curves = read_curves(out_dir / "profiles.csv")
        assert set(curves) == {"hypernsm", "graphnsm", "borgatti-everett", "umhs"}
        # the hypergraph-native method stays flat through k=23 while
        # the clique-expansion methods rise earlier
        assert all(v == 0.0 for v in curves["hypernsm"][:23])
        assert any(v > 0.0 for v in curves["graphnsm"][:23])
        assert any(v > 0.0 for v in curves["borgatti-everett"][:23])
        with open(out_dir / "timings.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["method"] for r in rows] == list(curves)
        assert all(float(r["wall_seconds"]) < 1.0 for r in rows)

    def test_rerun_reproduces_outputs(self, hypercycle_file, tmp_path):
        out_dir = tmp_path / "cmp"
        run(["compare", "--input", hypercycle_file, "--out-dir", out_dir, "--seed", 3])
        before = {
            p.name: p.read_bytes()
            for p in out_dir.iterdir()
            if p.name != "timings.csv"
        }
        assert run(["rerun", out_dir / "manifest.json"]) == 0
        after = {
            p.name: p.read_bytes()
            for p in out_dir.iterdir()
            if p.name != "timings.csv"
        }
        assert before == after

    def test_rerun_replays_values_that_start_with_a_dash(self, hypercycle_file, tmp_path,
                                                         monkeypatch):
        # a value that starts with "-" must reach the parser as "--out=-p.csv", one token
        monkeypatch.chdir(tmp_path)
        assert run(["detect", "--input", hypercycle_file, "--out", "s.json"]) == 0
        assert run(["profile", "--input", hypercycle_file, "--scores", "s.json",
                    "--out=-p.csv", "--method-label=-neg"]) == 0
        first = (tmp_path / "-p.csv").read_bytes()
        assert b"-neg" in first
        (tmp_path / "-p.csv").unlink()
        assert run(["rerun", tmp_path / "-p.csv.manifest.json"]) == 0
        assert (tmp_path / "-p.csv").read_bytes() == first

    @pytest.mark.parametrize("text", ["not json", "{}", "[]", '{"subcommand": "detect"}',
                                      '{"subcommand": "detect", "options": []}'])
    def test_rerun_reports_bad_manifest(self, tmp_path, capsys, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert run(["rerun", manifest]) == 1
        assert capsys.readouterr().err.startswith(f"hypercp: error: {manifest}: ")

    def test_core_file_naming_no_node_rejected(self, hypercycle_file, tmp_path, capsys):
        # exit 0 without intersection.csv, where `profile` rejected the same file
        core = tmp_path / "core.txt"
        core.write_text("x y\n")
        out_dir = tmp_path / "cmp"
        assert run(["compare", "--input", hypercycle_file, "--out-dir", out_dir,
                    "--core-file", core]) == 1
        assert "names no node of the hypergraph" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_intersection_written_with_core(self, hypercycle_file, tmp_path):
        h, overlaps = hypercycle()
        core = tmp_path / "core.txt"
        core.write_text("\n".join(str(i) for i in overlaps) + "\n")
        out_dir = tmp_path / "cmp2"
        run(["compare", "--input", hypercycle_file, "--out-dir", out_dir, "--core-file", core])
        curves = read_curves(out_dir / "intersection.csv")
        assert curves["hypernsm"][:5] == [1.0] * 5


def test_manifest_records_every_parser_option(hypercycle_file, tmp_path):
    # rerun replays the manifest's options, so a flag it misses is lost on replay
    scores = tmp_path / "s.json"
    runs = {
        "generate": (["--n", 6, "--max-size", 3, "--out", tmp_path / "g.txt"], "g.txt.manifest.json"),
        "detect": (["--input", hypercycle_file, "--out", scores], "s.json.manifest.json"),
        "profile": (["--input", hypercycle_file, "--scores", scores, "--out", tmp_path / "p.csv"],
                    "p.csv.manifest.json"),
        "compare": (["--input", hypercycle_file, "--out-dir", tmp_path / "cmp"], "cmp/manifest.json"),
    }
    subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
    assert set(subparsers) == set(runs) | {"rerun"}
    for sub, (flags, manifest) in runs.items():
        assert run([sub, *flags]) == 0
        options = json.loads((tmp_path / manifest).read_text())["options"]
        dests = [a.dest for a in subparsers[sub]._actions if a.dest != "help"]
        assert list(options) == dests, sub


class TestFreshInterpreter:
    """`hypercp` as users run it: a new interpreter, nothing imported yet."""

    @staticmethod
    def child(*argv, cwd, **streams):
        path = [str(Path(hypercp.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        env.pop("PYTHONUNBUFFERED", None)  # stdout off a terminal is then block-buffered
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, text=True,
                              timeout=120, **streams)

    def test_scipy_loaded_only_by_commands_that_build_b(self, hypercycle_file, tmp_path):
        scores = tmp_path / "s.json"
        assert run(["detect", "--input", hypercycle_file, "--out", scores]) == 0
        script = f"""
import json, sys
loaded = {{}}
import hypercp
loaded["import hypercp"] = "scipy" in sys.modules
from hypercp.cli import main
loaded["import hypercp.cli"] = "scipy" in sys.modules
for argv in (["generate", "--n", "8", "--max-size", "3", "--out", "g.txt"],
             ["profile", "--input", {str(hypercycle_file)!r}, "--scores", {str(scores)!r}, "--out", "p.csv"],
             ["detect", "--input", "g.txt", "--out", "d.json"]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = "scipy" in sys.modules
print(json.dumps(loaded))
"""
        proc = self.child("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "import hypercp": False, "import hypercp.cli": False,
            "generate": False, "profile": False, "detect": True,
        }

    def test_module_entry_point_matches_in_process_run(self, hypercycle_file, tmp_path):
        inside, outside = tmp_path / "in.json", tmp_path / "out.json"
        assert run(["detect", "--input", hypercycle_file, "--out", inside, "--seed", 7]) == 0
        proc = self.child("-m", "hypercp.cli", "detect", "--input", str(hypercycle_file),
                          "--out", str(outside), "--seed", "7", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert outside.read_bytes() == inside.read_bytes()
        labels = [Path(f"{path}.labels.json").read_bytes() for path in (outside, inside)]
        assert labels[0] == labels[1]

    @pytest.mark.parametrize("call,collector", [
        ("import runpy; runpy.run_module('hypercp.cli', run_name='__main__')", False),
        ("from hypercp.cli import main; sys.exit(main())", False),
        ("from hypercp.cli import main; rc = main(sys.argv[1:]); "
         "print('collector after main:', gc.isenabled()); sys.exit(rc)", True),
    ], ids=["run-module", "script-main", "main-with-argv"])
    def test_collector_off_only_from_the_entry_point(self, hypercycle_file, tmp_path,
                                                     call, collector):
        # registered before main, so it runs at exit; its output must still be flushed
        script = f"""
import atexit, gc, json, sys
def at_exit():
    print("collector at exit:", gc.isenabled())
    print("converged at exit:", json.load(open("d.json"))["converged"])
atexit.register(at_exit)
sys.argv = ["hypercp", "detect", "--input", {str(hypercycle_file)!r}, "--out", "d.json"]
{call}
"""
        proc = self.child("-c", script, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        want = ["collector after main: True"] * collector
        assert proc.stdout.splitlines() == want + [f"collector at exit: {collector}",
                                                   "converged at exit: True"]

    @pytest.mark.parametrize("argv,code,stderr", [
        (["generate", "--n", "8", "--max-size", "3", "--out", "g.txt"], 0, ""),
        (["generate", "--n", "1", "--max-size", "3", "--out", "g.txt"], 1, "hypercp: error: "),
        (["generate", "--n", "8", "--out", "g.txt"], 2, "usage: "),
    ], ids=["ok", "value-error", "usage-error"])
    def test_entry_point_exit_code(self, tmp_path, argv, code, stderr):
        proc = self.child("-m", "hypercp.cli", *argv, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(stderr) and bool(proc.stderr) == bool(stderr)

    @pytest.mark.parametrize("options,code", [
        ({"n": 8, "max_size": 3, "out": "g.txt"}, 0),
        ({"n": 1, "max_size": 3, "out": "g.txt"}, 1),
        ({"n": 8, "max_size": 3, "out": "g.txt", "no_such_option": 1}, 2),
    ], ids=["ok", "value-error", "usage-error"])
    def test_rerun_exits_with_the_inner_code(self, tmp_path, options, code):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": "generate", "options": options}))
        proc = self.child("-m", "hypercp.cli", "rerun", str(manifest), cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert (tmp_path / "g.txt").exists() == (code == 0)

    def test_piped_stdout_is_complete(self, tmp_path):
        gen = self.child("-m", "hypercp.cli", "generate", "--n", "8", "--max-size", "3",
                         "--out", "g.txt", cwd=tmp_path)
        cmp = self.child("-m", "hypercp.cli", "compare", "--input", "g.txt", "--out-dir", "cmp",
                         cwd=tmp_path)
        m = read_edge_list(tmp_path / "g.txt").m
        assert (gen.returncode, gen.stdout) == (0, f"wrote 8 nodes, {m} hyperedges to g.txt\n")
        assert (cmp.returncode, cmp.stdout) == (0, "compared 4 methods on g.txt -> cmp\n")

    def test_runs_without_stdout(self, tmp_path):
        # started with fd 1 closed, the interpreter sets sys.stdout to None
        proc = self.child("-m", "hypercp.cli", "generate", "--n", "8", "--max-size", "3",
                          "--out", "g.txt", cwd=tmp_path, stdout=None,
                          preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "g.txt").exists()

    @pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
    def test_failed_stdout_write_is_an_error(self, tmp_path, sink):
        argv = ("-m", "hypercp.cli", "generate", "--n", "8", "--max-size", "3", "--out", "g.txt")
        if sink == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                proc = self.child(*argv, cwd=tmp_path, stdout=full)
            err = errno.ENOSPC
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = self.child(*argv, cwd=tmp_path, stdout=write_end)
            finally:
                os.close(write_end)
            err = errno.EPIPE
        assert proc.returncode == 1
        assert proc.stderr == f"hypercp: error: [Errno {err}] {os.strerror(err)}\n"

    def test_every_text_file_is_opened_as_utf8(self, tmp_path):
        # an open() that leaves the encoding to the locale raises here
        h = Hypergraph(3, [[0, 1], [1, 2]], labels=["é", "節", "x"])
        write_edge_list(h, tmp_path / "h.txt.gz")
        steps = (["detect", "--input", "h.txt.gz", "--out", "s.csv", "--format", "csv"],
                 ["profile", "--input", "h.txt.gz", "--scores", "s.csv", "--out", "p.csv"],
                 ["rerun", "s.csv.manifest.json"],
                 ["compare", "--input", "h.txt.gz", "--out-dir", "cmp"])
        for argv in steps:
            proc = self.child("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                              "-m", "hypercp.cli", *argv, cwd=tmp_path)
            assert proc.returncode == 0, (argv, proc.stderr)
        rows = list(csv.reader((tmp_path / "s.csv").read_bytes().decode("utf-8").splitlines()))
        assert sorted(row[1] for row in rows[1:]) == ["x", "é", "節"]

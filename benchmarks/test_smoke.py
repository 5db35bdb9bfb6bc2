"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from checks import certificate, fixed_point_map, incidence  # noqa: E402
from inputs import random_edges  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = bench.Sizes(
    detect_n=300, detect_m_edges=600, planted_n=10, planted_max_size=3, core=3,
    sweep_n=200, sweep_m=400, setup_repeats=1,
)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    result, record = bench.execute(bench.Run(workload, 0, 0.0, trace, TINY), SPEC)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "p-sweep":  # the sweep's p=10.1 solve is expected to fail
        assert result["failed"] == 0, record["problems"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(record)


def test_certificate_matches_iteration_map_and_thompson_distance():
    sys.path.insert(0, str(bench.SRC))
    import hypercp

    rng = np.random.default_rng(5)
    n = 40
    members, ptr = random_edges(rng, n, 90)
    weights = rng.uniform(0.5, 2.0, size=ptr.size - 1)
    h = hypercp.Hypergraph(n, np.split(members, ptr[1:-1]), weights=weights)
    assert np.all(h.degrees > 0)
    b = incidence(members, ptr, n)
    x = rng.uniform(0.5, 1.5, size=n)
    rules = [
        (hypercp.XiRule.WEIGHTED_RECIPROCAL, weights / np.diff(ptr)),
        (hypercp.XiRule.UNIT, weights),
    ]
    for rule, xi in rules:
        for q, p in [(10.0, 11.0), (2.0, 3.5)]:
            tx = fixed_point_map(b, xi, x, q, p)
            np.testing.assert_allclose(tx, hypercp.iteration_map(h, rule, x, q, p), rtol=1e-12)
            c = (q - 1.0) / (p - 1.0)
            assert certificate(b, xi, x, q, p) == pytest.approx(
                hypercp.thompson_distance(x, tx) / (1.0 - c), rel=1e-12
            )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "detect-M", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""The golden runs: fixed command-line runs whose outputs `golden/` holds.

`run_golden` runs, through `hypercp.cli.main` in a directory and with
paths relative to it:

1. ``generate --n 40 --max-size 4 --seed 7`` to ``planted.txt``, then
   ``core.txt``: the labels of the nodes of planted rank 1-10.
2. ``compare`` on ``planted.txt`` with ``core.txt`` into ``planted/``.
3. ``detect`` with each method on ``random.txt.gz``, 8,000 edges of
   sizes 3-7 on 2,000 nodes (`benchmarks.inputs.random_edges` with
   ``default_rng(2024)``), to ``random_<method>.json``.
4. ``compare`` on ``twins.txt``, two disjoint triangles, with one of
   them in ``twins_core.txt``, into ``twins/``.  The spectral scores tie
   exactly across the triangles, so the intersection curves show how
   ties are ranked; no other run has a tie.

`golden/inputs/` holds the inputs of runs 3 and 4.  `golden/outputs/`
holds every output that is a spectral score file or at most
`LARGEST_STORED` bytes, and `golden/SHA256SUMS` the digests of the
others.  ``timings.csv`` is left out: it holds wall times.

Run from the repository root to rewrite `golden/` from the current code
(``--inputs`` rewrites the inputs first); a change that does so says why:

    PYTHONPATH=src python tests/golden_runs.py [--inputs]
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from hypercp.cli import METHODS, main

GOLDEN = Path(__file__).with_name("golden")
INPUTS = ("random.txt.gz", "twins.txt", "twins_core.txt")
SPECTRAL = ("hypernsm", "graphnsm", "borgatti-everett")
LARGEST_STORED = 16 * 1024  # bytes; larger files other than scores are kept as digests


def run_golden(directory: Path) -> dict[str, Path]:
    """Copy `INPUTS` into `directory`, run the golden runs there and
    return their `outputs`."""
    for name in INPUTS:
        shutil.copy(GOLDEN / "inputs" / name, directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        _runs()
    finally:
        os.chdir(cwd)
    return outputs(directory)


def _runs() -> None:
    assert main(["generate", "--n", "40", "--max-size", "4", "--seed", "7", "--out", "planted.txt"]) == 0
    ranks = json.loads(Path("planted.txt.planted.json").read_text())["planted_perm"]
    Path("core.txt").write_text("".join(f"{i}\n" for i, r in enumerate(ranks) if r <= 10))
    assert main(["compare", "--input", "planted.txt", "--out-dir", "planted", "--core-file", "core.txt"]) == 0
    for method in METHODS:
        assert main(["detect", "--method", method, "--input", "random.txt.gz",
                     "--out", f"random_{method}.json"]) == 0
    assert main(["compare", "--input", "twins.txt", "--out-dir", "twins", "--core-file", "twins_core.txt"]) == 0


def outputs(directory: Path) -> dict[str, Path]:
    """The files the runs wrote under `directory`, by relative POSIX path,
    without the inputs and ``timings.csv``."""
    return {
        path.relative_to(directory).as_posix(): path
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != "timings.csv" and path.name not in INPUTS
    }


def spectral_method(name: str) -> str | None:
    """The method whose score file `name` is (``scores_<method>.json`` of
    `compare`, ``random_<method>.json`` of `detect`), if a spectral one."""
    return next((m for m in SPECTRAL if name.endswith(f"_{m}.json")), None)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stored(name: str, path: Path) -> bool:
    """Whether the file is kept whole (else as a digest)."""
    return spectral_method(name) is not None or path.stat().st_size <= LARGEST_STORED


def read_digests() -> dict[str, str]:
    lines = (GOLDEN / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def write_inputs() -> None:
    """Write `INPUTS` to `golden/inputs/`; needs the repository root on sys.path."""
    import numpy as np

    from benchmarks.inputs import edge_list_text, random_edges

    inputs = GOLDEN / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    members, ptr = random_edges(np.random.default_rng(2024), 2000, 8000)
    with open(inputs / "random.txt.gz", "wb") as raw, gzip.GzipFile("random.txt", "wb", fileobj=raw, mtime=0) as f:
        f.write(edge_list_text(members, ptr))
    (inputs / "twins.txt").write_text("0 1 2\n3 4 5\n")
    (inputs / "twins_core.txt").write_text("0\n1\n2\n")


def regenerate() -> None:
    """Rerun the golden runs and rewrite `golden/outputs/` and `golden/SHA256SUMS`."""
    with tempfile.TemporaryDirectory() as tmp:
        made = run_golden(Path(tmp))
        shutil.rmtree(GOLDEN / "outputs", ignore_errors=True)
        digests = []
        for name, path in made.items():
            if stored(name, path):
                target = GOLDEN / "outputs" / name
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(path, target)
            else:
                digests.append(f"{sha256(path)}  {name}\n")
        (GOLDEN / "SHA256SUMS").write_text("".join(digests))


if __name__ == "__main__":
    if "--inputs" in sys.argv[1:]:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        write_inputs()
    regenerate()

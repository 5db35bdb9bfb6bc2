"""The golden runs (`golden_runs`) reproduce the outputs in tests/golden/.

Every output but the spectral scores must match byte for byte, the
large ones through their sha256 digest: edge lists, sidecars, labels,
manifests, curves and UMHS output.  An intended
change to any of them shows up as a diff of the committed files, made by
`golden_runs.py`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from golden_runs import GOLDEN, outputs, read_digests, run_golden, sha256, spectral_method, stored

TOL = 1e-8  # the CLI's default --tol, which every golden run uses (see the manifests)


def assert_scores_agree(got: dict, want: dict, method: str) -> None:
    """Spectral scores agree within what `TOL` allows two runs to differ.

    The CI CPU may round numpy's SIMD exp, log and BLAS sums differently
    from the machine that wrote the files, so these compare by value.
    hypernsm and graphnsm: converged means cert_bound <= TOL, an estimate
    of the max relative score error that sparse solves can exceed by a
    small factor, which `test_cert_bound_tracks_longdouble_error` bounds
    at 5, so two runs are within 10 TOL of each other, relatively.  borgatti-everett is linear and
    stops once one step moves the unit scores by less than TOL in the
    2-norm; runs that round differently follow the same iterates and may
    stop a step apart, within 2 TOL.  Eigenvalues agree to 10 TOL
    relatively.  `iterations` and `residuals` record the path, which last
    bits can lengthen by a step, and are not compared.
    """
    assert got.keys() == want.keys()
    assert got["converged"] == want["converged"]
    x, y = np.array(got["scores"]), np.array(want["scores"])
    if method == "borgatti-everett":
        assert np.linalg.norm(x - y) <= 2 * TOL
    else:
        np.testing.assert_allclose(x, y, rtol=10 * TOL, atol=0)
    assert got["eigenvalue"] == pytest.approx(want["eigenvalue"], rel=10 * TOL)


def test_golden_outputs(tmp_path):
    made = run_golden(tmp_path)
    digests = read_digests()
    kept = outputs(GOLDEN / "outputs")
    assert sorted(made) == sorted([*kept, *digests])
    for name, path in made.items():
        assert stored(name, path) == (name in kept), name
        method = spectral_method(name)
        if method is not None:
            assert_scores_agree(json.loads(path.read_text()), json.loads(kept[name].read_text()), method)
        elif name in kept:
            assert path.read_bytes() == kept[name].read_bytes(), name
        else:
            assert sha256(path) == digests[name], name

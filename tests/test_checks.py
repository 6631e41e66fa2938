"""Runtime checks measured against their pointwise definitions."""

import csv
import json
from types import SimpleNamespace

import numpy as np

from faberforms.checks import (
    _sample_points,
    _separation,
    check_harmonicity,
    check_uniform_convergence,
)
from faberforms.cli import main
from faberforms.conformal import AffineMap, CapFamily
from faberforms.surface import SurfaceSpec, green

TAU = 0.3 + 1.1j


def _pointwise_harmonicity(surface, seed, samples):
    # one Green's function call per stencil point, the points drawn from
    # the rng exactly as the check draws them
    rng = np.random.default_rng(seed)
    h = 3e-4
    z = 0.5 * (1.0 + surface.tau) + 0.06
    q = surface.q
    pts = []
    while len(pts) < samples:
        w = _sample_points(surface, rng, 1, clearance=0.0)[0]
        if _separation(surface, w, (z, q)) > 0.25:
            pts.append(w)
    worst = 0.0
    for w in pts:
        stencil = [w + h, w - h, w + 1j * h, w - 1j * h, w]
        vals = [green(surface, p, z, q=q) for p in stencil]
        lap = (sum(vals[:4]) - 4.0 * vals[4]) / h**2
        worst = max(worst, abs(float(lap.real)))
    return worst


def test_harmonicity_batch_matches_pointwise_loop():
    surface = SurfaceSpec.torus(TAU, CapFamily([AffineMap(0.11, 0.3 + 0.3 * TAU)]))
    res = check_harmonicity(SimpleNamespace(surface=surface, seed=5, samples=12))
    want = _pointwise_harmonicity(surface, 5, 12)
    assert res.passed and res.threshold == 1e-4
    assert abs(res.value - want) <= 1e-9 * max(want, 1e-12)


def test_uniform_convergence_reads_the_runner_errors():
    dec = SimpleNamespace(residual_history=((5, 1e-3), (10, 1e-5), (20, 1e-8)))
    ctx = SimpleNamespace(decomposition=dec, sup_tolerance=1e-6,
                          sup_errors=(2e-3, 3e-5, 4e-8))
    res = check_uniform_convergence(ctx)
    assert res.passed and res.value == 4e-8
    assert res.detail == "M=5: 2.000e-03, M=10: 3.000e-05, M=20: 4.000e-08"
    rising = SimpleNamespace(decomposition=dec, sup_tolerance=1e-6,
                             sup_errors=(2e-3, 3e-3, 4e-8))
    assert not check_uniform_convergence(rising).passed


def test_uniform_convergence_value_is_the_residuals_csv_figure(tmp_path):
    assert main(["run", str(_config(tmp_path)), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "residuals.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    report = json.loads((tmp_path / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "uniform convergence")
    assert check["value"] == float(rows[-1]["sup_error"])


def _config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[surface]\ngenus = 0\nq = inf\n\n"
        "[caps]\nmain = affine scale=1 offset=0\n\n"
        "[target]\nfamily = pole\neta = 0.3\nstrength = 1\n\n"
        "[run]\nM = 12\nchecks = uniform convergence\n"
        "l2_tolerance = 1e-6\nsup_tolerance = 1e-6\nprobe_radius = 2.0\n"
    )
    return path

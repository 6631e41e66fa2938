"""Runtime checks measured against their pointwise definitions."""

import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from faberforms import checks

from faberforms.checks import _sample_points, check_harmonicity, check_uniform_convergence
from faberforms.cli import main
from faberforms.config import parse_config, probe_ring
from faberforms.conformal import AffineMap, CapFamily
from faberforms.numerics import NumericalError, Pcg64Stream, ValidationError
from faberforms.runner import RunContext
from faberforms.series import project_faber, uniform_error
from faberforms.surface import SurfaceSpec, green
from faberforms.targets import build_target

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TAU = 0.3 + 1.1j


def _config_path(name):
    return os.path.join(ROOT, "configs", name + ".cfg")


def _one_at_a_time(surface, rng, count, clearance, accept=None):
    # the sampler drawn and tested one candidate at a time
    if surface.genus == 1:
        origin, lo, hi, step = 0.0, 0.02, 0.98, surface.tau
    else:
        centers = np.asarray(surface.caps.centers)
        origin = complex(np.mean(centers))
        hi = max(2.0 + float(np.max(np.abs(centers - origin))),
                 surface.caps.reach(origin) + clearance)
        lo, step = -hi, 1j
    pts = []
    while len(pts) < count:
        z = origin + rng.uniform(lo, hi, 1)[0] + rng.uniform(lo, hi, 1)[0] * step
        if (surface.in_sigma(z) and float(surface.distance_to_caps_reduced(z)[0]) > clearance
                and (accept is None or accept(z))):
            pts.append(z)
    return np.array(pts)


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_batched_sample_points_match_the_one_at_a_time_loop(name):
    surface = parse_config(_config_path(name)).surface
    marks = (surface.w0, surface.w0 + 0.3)
    for count in (1, 20, 100):
        for clearance in (0.0, 0.05, 0.25):
            for accept in (None, lambda w: surface.distance(w, marks) > 0.25):
                want_rng = np.random.default_rng(count)
                got_rng = Pcg64Stream(count)
                want = _one_at_a_time(surface, want_rng, count, clearance, accept)
                got = _sample_points(surface, got_rng, count, clearance, accept=accept)
                assert got.shape == (count,) and np.array_equal(got, want)
                pcg = want_rng.bit_generator.state["state"]
                assert (got_rng.state, got_rng.inc) == (pcg["state"], pcg["inc"])


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 - 1, 2**32, 2**64 + 1, 10**30])
def test_the_stream_draws_numpys_default_rng_uniforms_bit_for_bit(seed):
    for size in (1, 16, 333):
        for low, high in ((0.02, 0.98), (-3.5, 3.5)):
            want = np.random.default_rng(seed).uniform(low, high, size)
            got = Pcg64Stream(seed).uniform(low, high, size)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    # the sampler's pattern: save, draw a surplus, restore, draw again
    want_rng, got_rng = np.random.default_rng(seed), Pcg64Stream(seed)
    want = want_rng.uniform(0.02, 0.98, 10)
    state = got_rng.state
    got_rng.uniform(0.02, 0.98, 40)
    got_rng.state = state
    assert got_rng.uniform(0.02, 0.98, 10).tobytes() == want.tobytes()
    assert got_rng.uniform(-3.5, 3.5, 333).tobytes() == want_rng.uniform(-3.5, 3.5, 333).tobytes()
    pcg = want_rng.bit_generator.state["state"]
    assert (got_rng.state, got_rng.inc) == (pcg["state"], pcg["inc"])


# a torus whose cycle base clears the caps, but no point of its cell is
# more than 0.245 from them, while r0-independence asks for more than 0.25
NO_CLEAR_POINT = """[surface]
genus = 1
tau = -0.0562+0.5216j
[caps]
a = affine scale=0.1 offset=0.6868+0.2337j
b = affine scale=0.1345 offset=0.1806+0.1669j
[target]
family = basis
k = 0
m = 1
[run]
M = 1
checks = r0-independence
"""
NO_CLEAR_POINT_MESSAGE = ("found 0 of 20 sample points with clearance 0.25 "
                          "from the caps in 20000 candidates")


def test_a_sampling_region_without_admissible_points_is_refused(tmp_path):
    # the sampler used to draw without end on this config
    path = tmp_path / "no_clear_point.cfg"
    path.write_text(NO_CLEAR_POINT)
    config = parse_config(str(path))
    ctx = SimpleNamespace(surface=config.surface, seed=config.seed)
    with pytest.raises(ValidationError, match=f"^{NO_CLEAR_POINT_MESSAGE}$"):
        checks.check_r0_independence(ctx)
    out = subprocess.run([sys.executable, "-m", "faberforms.cli", "run", str(path),
                          "--out-dir", str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 2
    assert out.stderr == f"config error: {NO_CLEAR_POINT_MESSAGE}\n"


@pytest.mark.parametrize("name, scale", [("sphere_identity", 2.5), ("sphere_identity", 3),
                                         ("sphere_joukowski", 2.5)])
def test_a_cap_wider_than_the_centers_box_leaves_room_to_sample(tmp_path, name, scale):
    # the box was the centers' mean +- 2, which a cap of radius 2.5 at the
    # origin covers: each run solved, then found 0 of 20 sample points with
    # the r0-independence check's clearance and exited 2 naming no key
    with open(_config_path(name)) as fh:
        text = fh.read()
    assert "scale=1 offset=0" in text
    text = text.replace("scale=1 offset=0", f"scale={scale} offset=0")
    text = re.sub(r"^probe_\w+ = .*\n", "", text, flags=re.M)
    text = re.sub(r"^checks = .*$", "checks = " + ", ".join(checks.CHECKS), text, flags=re.M)
    path = tmp_path / "wide.cfg"
    path.write_text(text)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.json") as fh:
        report = json.load(fh)
    assert [entry["name"] for entry in report["checks"]] == list(checks.CHECKS)
    assert all(entry["passed"] for entry in report["checks"])


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_random_point_checks_read_the_one_at_a_time_values(name, monkeypatch):
    config = parse_config(_config_path(name))
    ctx = SimpleNamespace(surface=config.surface, seed=config.seed)
    runs = (checks.check_harmonicity, checks.check_q_independence, checks.check_r0_independence)
    got = [run(ctx).value for run in runs]
    monkeypatch.setattr(checks, "_sample_points", _one_at_a_time)
    assert got == [run(ctx).value for run in runs]


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_q_independence_fails_a_green_function_that_feels_q(name, monkeypatch):
    config = parse_config(_config_path(name))
    ctx = SimpleNamespace(surface=config.surface, seed=config.seed)
    res = checks.check_q_independence(ctx)
    assert res.passed and res.threshold == 1e-9 and res.value < 1e-13

    def feels_q(surface, w, z, **kwargs):
        # a term coupling w, z and the base point survives the double difference
        q = kwargs.get("q", surface.q)
        q = 0.0 if q is None else q
        return green(surface, w, z, **kwargs) + 1e-6 * (q * np.asarray(w) * np.conj(z)).real

    monkeypatch.setattr(checks, "green", feels_q)
    res = checks.check_q_independence(ctx)
    assert not res.passed and res.value > 1e-9


@pytest.mark.parametrize("shift", [2, 2 * TAU, -3 + TAU])
def test_green_checks_read_a_base_point_written_cells_away(shift):
    # the same torus point q written in another cell: the sample points
    # must keep clear of its image in the cell, or they land beside it
    config = parse_config(_config_path("torus_two_caps"))
    s = config.surface
    moved = SurfaceSpec.torus(s.tau, s.caps, q=s.q + shift, w0=s.w0)
    ctx = SimpleNamespace(surface=moved, seed=config.seed)
    assert check_harmonicity(ctx).passed
    assert checks.check_q_independence(ctx).passed


def _green_marks(check, ctx, monkeypatch):
    # the set of (z, base point) of the Green's functions a check evaluates
    marks = set()

    def recorded(surface, w, z, **kwargs):
        marks.add((z, kwargs.get("q", surface.q)))
        return green(surface, w, z, **kwargs)

    monkeypatch.setattr(checks, "green", recorded)
    check(ctx)
    return marks


@pytest.mark.parametrize("surface", [
    SurfaceSpec.sphere(CapFamily([AffineMap(2.5)])),
    SurfaceSpec.sphere(CapFamily([AffineMap(1.0), AffineMap(0.5, 3 + 0.5j)]), q=-4 + 1j),
    SurfaceSpec.torus(TAU, CapFamily([AffineMap(0.11, 0.39 + 0.33j),
                                      AffineMap(0.11, 0.924 + 0.748j)])),
], ids=["wide-sphere", "sphere-finite-q", "torus"])
def test_the_green_checks_place_their_marks_by_the_surfaces_rule(surface, monkeypatch):
    # on a sphere cap of radius 2.5 the harmonicity check put its z = 0.31i
    # and its q = 1.7 - 0.59i inside the cap, and passed all the same
    ctx = SimpleNamespace(surface=surface, seed=0)
    own = tuple(p for p in (surface.q, surface.w0) if p is not None)
    second = surface.clear_point(avoid=own)
    z = surface.clear_point(avoid=(second, surface.w0))
    assert _green_marks(check_harmonicity, ctx, monkeypatch) == {(z, second)}
    bases = {q for _z, q in _green_marks(checks.check_q_independence, ctx, monkeypatch)}
    assert bases == {surface.q, second}
    assert all(surface.in_sigma([z, second]))
    assert surface.distance(second, own) > 0.1 and surface.distance(z, [second, surface.w0]) > 0.1


def test_r0_independence_reports_the_figure_nearer_its_bound(monkeypatch):
    config = parse_config(_config_path("sphere_identity"))
    ctx = SimpleNamespace(surface=config.surface, seed=config.seed)
    res = checks.check_r0_independence(ctx)
    assert res.passed and res.threshold == 1e-9 and res.value < 1e-13
    contour = checks.schiffer_contour

    def drifts(surface, k, orders, pts, r0):
        # radius spread 5e-9 over r0 = 0.4..0.8; area gap 7.5e-9 at r0 = 0.6
        return contour(surface, k, orders, pts, r0=r0) + 1.25e-8 * r0

    monkeypatch.setattr(checks, "schiffer_contour", drifts)
    res = checks.check_r0_independence(ctx)
    assert res.passed is False
    assert res.threshold == 1e-9 and res.value >= res.threshold
    assert res.value == pytest.approx(5e-9, rel=1e-3)
    assert res.detail.startswith("radius spread 5.000e-09, area gap 7.500e-09")


def _invariance_context(config):
    dec = project_faber(config.target, config.surface, config.M,
                        condition_limit=config.condition_limit)
    return SimpleNamespace(surface=config.surface, target_family=config.target_family,
                           target_params=config.target_params, translation=config.translation,
                           condition_limit=config.condition_limit, decomposition=dec)


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_invariance_solves_once_on_the_moved_surface_at_the_run_order(name, monkeypatch):
    config = parse_config(_config_path(name))
    ctx = _invariance_context(config)
    calls = []

    def counted(target, surface, M, **kwargs):
        calls.append((surface, M, kwargs))
        return project_faber(target, surface, M, **kwargs)

    monkeypatch.setattr(checks, "project_faber", counted)
    res = checks.check_invariance(ctx)
    assert res.passed and res.threshold == 1e-8 and res.value < 1e-14
    assert res.detail.startswith(f"translation {config.translation}, M={config.M}, worst in ")
    assert [(M, kwargs) for _s, M, kwargs in calls] == [
        (config.M, {"condition_limit": config.condition_limit})]
    moved = np.asarray(calls[0][0].caps.centers)
    assert np.allclose(moved, np.asarray(config.surface.caps.centers) + config.translation)


def test_invariance_fails_a_target_that_ignores_the_moved_surface(monkeypatch):
    config = parse_config(_config_path("sphere_joukowski"))
    ctx = _invariance_context(config)
    monkeypatch.setattr(checks, "build_target",
                        lambda _surface, family, **params:
                        build_target(config.surface, family, **params))
    res = checks.check_invariance(ctx)
    assert not res.passed and res.value > 1e-8
    assert res.detail == f"translation {config.translation}, M={config.M}, worst in h"


def _pointwise_harmonicity(surface, seed, samples):
    # one Green's function call per stencil point, the points drawn from
    # the stream exactly as the check draws them
    rng = Pcg64Stream(seed)
    h = 3e-4
    q = surface.clear_point(avoid=(surface.q, surface.w0))
    z = surface.clear_point(avoid=(q, surface.w0))
    pts = []
    while len(pts) < samples:
        w = _sample_points(surface, rng, 1, clearance=0.0)[0]
        if surface.distance(w, (z, q)) > 0.25:
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
    res = check_harmonicity(SimpleNamespace(surface=surface, seed=5))
    want = _pointwise_harmonicity(surface, 5, checks.SAMPLE_POINTS)
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


def _config(tmp_path, check_list="uniform convergence"):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[surface]\ngenus = 0\nq = inf\n\n"
        "[caps]\nmain = affine scale=1 offset=0\n\n"
        "[target]\nfamily = pole\neta = 0.3\nstrength = 1\n\n"
        f"[run]\nM = 12\nchecks = {check_list}\n"
        "l2_tolerance = 1e-6\nsup_tolerance = 1e-6\nprobe_radius = 2.0\n"
    )
    return path


def test_setup_does_not_import_numpy_ma():
    # numpy.ma costs a set-up about 15 ms; importing the entry point and
    # parsing a sphere and a torus config must not pull it in
    code = (
        "import sys\n"
        "import faberforms.cli\n"
        "from faberforms.config import parse_config\n"
        f"parse_config({_config_path('sphere_joukowski')!r})\n"
        f"parse_config({_config_path('torus_two_caps')!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", ["torus_two_caps", "sphere_joukowski"])
def test_harmonicity_fails_a_green_function_that_is_not_harmonic(name, monkeypatch):
    config = parse_config(_config_path(name))
    ctx = SimpleNamespace(surface=config.surface, seed=config.seed)

    def bowl(surface, w, z, **kwargs):
        # 1e-3 |w|^2 has Laplacian 4e-3, 40 times the bound; the 3e-4 stencil
        # reads a quadratic exactly
        return green(surface, w, z, **kwargs) + 1e-3 * np.abs(np.asarray(w)) ** 2

    monkeypatch.setattr(checks, "green", bowl)
    res = checks.check_harmonicity(ctx)
    assert res.passed is False and res.value > 1e-4 and res.threshold == 1e-4


@pytest.fixture(scope="module")
def torus_run():
    """The torus config's run context, as the runner builds it."""
    config = parse_config(_config_path("torus_two_caps"))
    dec = project_faber(config.target, config.surface, config.M,
                        condition_limit=config.condition_limit)
    sups = uniform_error(config.target, config.surface, dec, probe_ring(config),
                         [order for order, _l2 in dec.residual_history])
    return RunContext(**vars(config), decomposition=dec, sup_errors=tuple(sups))


@pytest.mark.parametrize("name", list(checks.CHECKS))
def test_every_check_reaches_its_verdict_through_the_one_rule(name, torus_run, monkeypatch):
    verdicts = []
    rule = checks._verdict

    def counted(*args, **kwargs):
        verdicts.append(rule(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(checks, "_verdict", counted)
    res = checks.CHECKS[name][0](torus_run)
    assert len(verdicts) == 1 and res is verdicts[0]
    assert res.name == name and res.passed


def _poisoned(values, index=0):
    out = np.array(values, dtype=complex)
    out.flat[index] = np.nan
    return out


def _poison_call(monkeypatch, attr, when=lambda *args, **kwargs: True):
    # checks.<attr> with its first output entry NaN on the calls ``when`` picks
    original = getattr(checks, attr)

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        return _poisoned(out) if when(*args, **kwargs) else out

    monkeypatch.setattr(checks, attr, poisoned)


def _poison_tail(monkeypatch, index):
    # the tail coefficient ``index`` places past coefficient m of every order
    original = checks.principal_part

    def poisoned(surface, elements):
        parts = original(surface, elements)
        return [(replace(tail, coefficients=_poisoned(tail.coefficients, el.order + index)), head)
                for el, (tail, head) in zip(elements, parts)]

    monkeypatch.setattr(checks, "principal_part", poisoned)


def _poison_history(ctx, index):
    dec = ctx.decomposition
    hist = list(dec.residual_history)
    hist[index] = (hist[index][0], float("nan"))
    return replace(ctx, decomposition=replace(dec, residual_history=tuple(hist)))


def _poison_sup(ctx, index):
    return replace(ctx, sup_errors=tuple(_poisoned(ctx.sup_errors, index).real))


def _poison_moved_solve(monkeypatch, ctx, component):
    # the moved surface's solve returns the reported decomposition with
    # one entry of one component NaN
    dec = ctx.decomposition
    if component.startswith("h at M="):
        m = int(component.split("=")[1])
        poisoned = replace(dec, checkpoints=tuple(
            (mp, _poisoned(h) if mp == m else h) for mp, h in dec.checkpoints))
    else:
        poisoned = replace(dec, **{component: _poisoned(getattr(dec, component))})
    monkeypatch.setattr(checks, "project_faber", lambda *args, **kwargs: poisoned)


# (check, poisoned input, figure the NumericalError names); the torus
# config solves to M = 10 with checkpoints 5 and 10
POISONS = [
    ("pole-structure", "head coefficient", "tail"),
    ("pole-structure", "deeper tail coefficient", "tail"),
    ("harmonicity", "Green's function", "Laplacian"),
    ("q-independence", "Green's function", "double difference"),
    ("r0-independence", "contour read at r0=0.4", "radius spread"),
    ("r0-independence", "contour read at r0=0.6", "radius spread"),
    ("r0-independence", "contour read at r0=0.8", "radius spread"),
    ("r0-independence", "area read", "area gap"),
    ("convergence", "residual 0", "L2 residual at M=5"),
    ("convergence", "residual 1", "L2 residual at M=10"),
    ("uniform convergence", "sup error 0", "sup error at M=5"),
    ("uniform convergence", "sup error 1", "sup error at M=10"),
    ("invariance", "epsilon", "epsilon"),
    ("invariance", "c", "c"),
    ("invariance", "d", "d"),
    ("invariance", "h", "h"),
    ("invariance", "h at M=5", "h at M=5"),
    ("invariance", "h at M=10", "h at M=10"),
]


@pytest.mark.parametrize("name, read, figure", POISONS,
                         ids=[f"{name}-{read}" for name, read, _figure in POISONS])
def test_a_poisoned_read_is_a_numerical_failure_naming_its_figure(name, read, figure, torus_run,
                                                                   monkeypatch):
    ctx = torus_run
    if read == "head coefficient":
        _poison_tail(monkeypatch, 0)
    elif read == "deeper tail coefficient":
        _poison_tail(monkeypatch, 2)
    elif read == "Green's function":
        _poison_call(monkeypatch, "green")
    elif read.startswith("contour read"):
        r = float(read.split("=")[1])
        _poison_call(monkeypatch, "schiffer_contour", lambda *args, r0: r0 == r)
    elif read == "area read":
        _poison_call(monkeypatch, "apply_schiffer")
    elif read.startswith("residual"):
        ctx = _poison_history(ctx, int(read.split()[1]))
    elif read.startswith("sup error"):
        ctx = _poison_sup(ctx, int(read.split()[2]))
    else:
        _poison_moved_solve(monkeypatch, ctx, read)
    with pytest.raises(NumericalError, match=f"^{figure} is not finite$"):
        checks.CHECKS[name][0](ctx)


def test_a_poisoned_read_exits_3_with_a_readable_report(tmp_path, monkeypatch, capsys):
    _poison_call(monkeypatch, "apply_schiffer")
    path = _config(tmp_path, check_list="r0-independence, uniform convergence")
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 3
    assert "r0-independence: area gap is not finite" in capsys.readouterr().err
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["exit_code"] == 3
    assert report["numerical_failures"] == ["r0-independence: area gap is not finite"]
    r0, uniform = report["checks"]
    assert r0 == {"name": "r0-independence", "passed": False, "value": None,
                  "threshold": None, "detail": "numerical failure: area gap is not finite"}
    assert uniform["passed"] is True

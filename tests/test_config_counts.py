"""The counts in [run] must be positive: a zero or negative count is a
config error that names its field and exits 2 before anything runs. The
same holds for a probe radius that is not positive, a tolerance,
condition limit or probe radius that is not finite and positive, a
translation that is not finite, a probe ring with a point in a cap or
inside its genus's margin, a translation that carries a torus cap out of
the cell under the invariance check, a [surface] tau, cap parameter or
[target] number that is not finite, a truncation order past the roundoff
limit of the basis read (run.M, a combination target's h orders or
seeded order), a negative seeded order, a decay whose powers overflow, a
pole deeper than the solve admits, a pole-structure order past the
roundoff limit of the principal-part read, a [target] parameter that the
chosen family does not take, a key that [surface], [run] or [output]
does not read (the retired margin, w0, samples, probe_points,
probe_center and uniform_margin among them), a block that the parse does
not read, a negative seed and a base point q that is neither finite nor
inf, or a torus base point on a lattice copy of a cap. Every other
refusal of the parse is matched by its full message too, the README's
lists of the keys each block reads are the keys the parse reads, and
each of those keys is set by a shipped config or a benchmark workload."""

import glob
import inspect
import os
import re
import sys

import numpy as np
import pytest

from faberforms import targets
from faberforms.cli import main
from faberforms.config import TARGET_PARAMS, ConfigError, _Block, parse_config, probe_ring
from faberforms.surface import SurfaceSpec
from faberforms.targets import FAMILIES

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
BASE = (
    "[surface]\ngenus = 0\nq = inf\n"
    "[caps]\nmain = affine scale=1 offset=0\n"
    "[target]\nfamily = basis\nk = 0\nm = 1\n"
    "[run]\nM = 2\nchecks = pole-structure, harmonicity, uniform convergence, invariance\n"
)


@pytest.mark.parametrize("field", ["samples", "probe_points", "pole_orders"])
@pytest.mark.parametrize("value", [0, -3])
def test_nonpositive_run_count_is_a_named_config_error(tmp_path, capsys, field, value):
    # samples and probe_points are retired counts (the checks' sample points
    # and the probe ring's points are constants): any value of them is
    # refused as an unknown key, naming the field all the same
    message = "unknown key" if field in ("samples", "probe_points") else f"must be >= 1, got {value}"
    path = tmp_path / "bad.cfg"
    path.write_text(BASE + f"{field} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^run\.{field}: {message}$"):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert f"run.{field}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line, message", [
    ("probe_center = 5+5j", r"run\.probe_center: unknown key$"),
    ("probe_radius = -1.5", r"run\.probe_radius: must be > 0, got -1\.5$"),
    ("probe_radius = 0", r"run\.probe_radius: must be > 0, got 0\.0$"),
    ("uniform_margin = -1", r"run\.uniform_margin: unknown key$"),
], ids=["center-without-radius", "negative-radius", "zero-radius", "negative-margin"])
def test_an_unusable_probe_setting_is_a_named_config_error(tmp_path, capsys, line, message):
    # each was parsed silently: the default probe replaced a lone center,
    # and a negative margin switched off the guard of the sup-norm errors;
    # the ring's center is the geometry's and the margin a constant now,
    # and both keys are refused as unknown
    path = tmp_path / "bad.cfg"
    path.write_text(BASE + line + "\n")
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("line, message", [
    ("l2_tolerance = nan", r"run\.l2_tolerance: must be finite, got 'nan'$"),
    ("l2_tolerance = inf", r"run\.l2_tolerance: must be finite, got 'inf'$"),
    ("l2_tolerance = 0", r"run\.l2_tolerance: must be > 0, got 0\.0$"),
    ("sup_tolerance = -1", r"run\.sup_tolerance: must be > 0, got -1\.0$"),
    ("sup_tolerance = inf", r"run\.sup_tolerance: must be finite, got 'inf'$"),
    ("condition_limit = nan", r"run\.condition_limit: must be finite, got 'nan'$"),
    ("condition_limit = inf", r"run\.condition_limit: must be finite, got 'inf'$"),
    ("translation = nan", r"run\.translation: must be finite, got 'nan'$"),
    ("probe_center = nan\nprobe_radius = 1.5", r"run\.probe_center: unknown key$"),
    ("probe_radius = inf", r"run\.probe_radius: must be finite, got 'inf'$"),
    ("uniform_margin = inf", r"run\.uniform_margin: unknown key$"),
], ids=["nan-l2", "inf-l2", "zero-l2", "negative-sup", "inf-sup", "nan-condition-limit",
        "inf-condition-limit", "nan-translation", "nan-probe-center", "inf-probe-radius", "inf-uniform-margin"])
def test_an_unusable_run_number_is_a_named_config_error(tmp_path, capsys, line, message):
    # each ran: a tolerance of nan or inf died writing the report (exit 1),
    # 0 or -1 could never pass, a nan condition limit never regularized, a
    # nan probe center poisoned the sup errors, a nan translation was
    # refused as a map covering its center more than once, an inf probe
    # radius failed the run as a sup error that is not finite (exit 3) and
    # an inf uniform margin was refused naming a point; the probe center
    # and the uniform margin are retired keys
    path = tmp_path / "bad.cfg"
    path.write_text(BASE + line + "\n")
    with pytest.raises(ConfigError, match=message):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (out / "report.json").exists()


TORUS = BASE.replace("genus = 0\nq = inf\n", "genus = 1\ntau = 1j\n").replace(
    "main = affine scale=1 offset=0", "main = affine scale=0.1 offset=0.5+0.5j")


@pytest.mark.parametrize("text, message", [
    (BASE.replace("q = inf", "q = inf\nw0 = nan"), r"surface\.w0: unknown key"),
    (BASE.replace("q = inf", "q = inf\nw0 = inf"), r"surface\.w0: unknown key"),
    *[(TORUS.replace("tau = 1j", f"tau = 1j\nmargin = {value}"), r"surface\.margin: unknown key")
      for value in ("nan", "inf", "0")],
], ids=["nan-w0", "inf-w0", "nan-margin", "inf-margin", "zero-margin"])
def test_an_unusable_surface_number_is_a_named_config_error(tmp_path, capsys, text, message):
    # a nan w0 made the q-independence check draw points forever and the
    # convergence report die in json.dump (exit 1); a nan margin on the
    # torus switched the caps-in-cell and cycle clearance checks off (exit
    # 0); w0 is placed by the surface and the cell margin is a constant
    # now, and both keys are refused as unknown
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{message}$") as err:
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {err.value}\n"
    assert not (out / "report.json").exists()


def test_the_torus_config_of_the_surface_number_cases_parses(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(TORUS)
    surface = parse_config(str(path)).surface
    assert (surface.genus, surface.w0) == (1, surface.clear_point(avoid=(surface.q,)))


def test_a_torus_q_on_a_lattice_copy_of_a_cap_is_a_config_error(tmp_path, capsys):
    # 1.5+1.5j is the cap's center moved by 1 + tau: it parsed, and the run
    # passed every check with its base point inside the cap (exit 0)
    path = tmp_path / "bad.cfg"
    path.write_text(TORUS.replace("tau = 1j", "tau = 1j\nq = 1.5+1.5j"))
    message = "surface: marked point q = 1.5+1.5j lies in a closed cap"
    with pytest.raises(ConfigError, match=r"^surface: marked point q = 1\.5\+1\.5j lies"):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "report.json").exists()


def test_the_parse_leaves_the_probe_to_the_run(monkeypatch):
    # the default ring rides the torus cycle base, which the run searches for
    def searched(self):
        raise AssertionError("the parse searched for the cycle base")

    monkeypatch.setattr(SurfaceSpec, "cycle_base", searched)
    path = os.path.join(ROOT, "configs", "torus_two_caps.cfg")
    config = parse_config(path)
    assert config.surface.genus == 1 and config.probe_radius is None


def test_a_probe_radius_is_kept_around_the_geometry_center(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(BASE + "probe_radius = 1.5\n")
    config = parse_config(str(path))
    center, radius = config.surface.geometry.probe_ring()
    assert config.probe_radius == 1.5 != radius
    assert np.allclose(np.abs(probe_ring(config) - center), 1.5, rtol=0, atol=1e-15)


def test_a_torus_probe_ring_is_held_to_the_torus_margin(tmp_path):
    # about the cycle base 0, 0.077 from the cap: inside the sphere's margin
    # of 0.1, outside the torus's
    path = tmp_path / "ok.cfg"
    path.write_text(TORUS + "probe_radius = 0.53\n")
    assert parse_config(str(path)).probe_radius == 0.53


def test_a_translation_out_of_the_cell_is_refused_only_under_invariance(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(TORUS.replace("offset=0.5+0.5j", "offset=0.84+0.5j")
                    .replace(", invariance", ""))
    assert parse_config(str(path)).translation == 0.05


@pytest.mark.parametrize("field", ["pole_orders"])
def test_a_count_of_one_is_accepted(tmp_path, field):
    path = tmp_path / "ok.cfg"
    path.write_text(BASE + f"{field} = 1\n")
    assert getattr(parse_config(str(path)), field) == 1


def _rejected_before_anything_runs(tmp_path, capsys, text, field):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_pole_orders_past_the_roundoff_limit_is_a_named_config_error(tmp_path, capsys):
    # the principal-part read on radius 0.3 carries orders up to 14
    _rejected_before_anything_runs(tmp_path, capsys, BASE + "pole_orders = 15\n",
                                   "run.pole_orders")
    bad = tmp_path / "bad.cfg"
    with pytest.raises(ConfigError, match=r"run\.pole_orders: must be <= 14, .* got 15"):
        parse_config(str(bad))
    path = tmp_path / "ok.cfg"
    path.write_text(BASE.replace(BASE.splitlines()[-1], "checks = pole-structure")
                    + "pole_orders = 14\n")
    assert parse_config(str(path)).pole_orders == 14
    assert main(["run", str(path), "--out-dir", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("M", [212, 100000])
def test_M_past_the_roundoff_limit_is_a_named_config_error(tmp_path, capsys, M):
    # the basis read of order M sits on the contour radius 0.92 from order
    # 49 on, which carries orders up to 211; M = 100000 crashed formatting
    # the guard's figure, 0.92^(-M), which overflows a float
    _rejected_before_anything_runs(tmp_path, capsys, BASE.replace("M = 2", f"M = {M}"), "run.M")
    with pytest.raises(ConfigError) as err:
        parse_config(str(tmp_path / "bad.cfg"))
    assert str(err.value) == ("run.M: must be <= 211, the roundoff limit of a read "
                              f"on the contour radius 0.92, got {M}")
    path = tmp_path / "ok.cfg"
    path.write_text(BASE.replace("M = 2", "M = 211"))
    assert parse_config(str(path)).M == 211


def test_the_retired_invariance_order_is_a_named_config_error(tmp_path, capsys):
    _rejected_before_anything_runs(tmp_path, capsys, BASE + "invariance_order = 3\n",
                                   "run.invariance_order: unknown key")


@pytest.mark.parametrize("text, field", [
    (BASE.replace("genus = 0\n", "genus = 0\ntua = 0.3+1.1j\n"), "surface.tua"),
    (BASE + "sup_tolerence = 1e-30\n", "run.sup_tolerence"),
    (BASE + "[output]\ndirectroy = out\n", "output.directroy"),
    # retired counts: the checks' sample points and the probe ring's points
    # are constants (the retired margins are refused with the other
    # unusable numbers above)
    (BASE + "samples = 100\n", "run.samples"),
    (BASE + "probe_points = 40\n", "run.probe_points"),
], ids=["surface", "run", "output", "samples", "probe-points"])
def test_an_unknown_key_is_a_named_config_error(tmp_path, capsys, text, field):
    _rejected_before_anything_runs(tmp_path, capsys, text, f"{field}: unknown key")


def _readme_keys(block: str) -> set:
    # the bullet "* `[block]`: `key`, ..." of the README's list of the keys
    # each block reads, up to the parenthesis that spells out strict's values
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    bullet = re.search(rf"^\* `\[{block}\]`:(.*?)(?=^\*|^$)", text, re.M | re.S).group(1)
    return {key.lower() for key in re.findall(r"`(\w+)`", bullet.split("(")[0])}


@pytest.mark.parametrize("text", [BASE, TORUS + "[output]\ndirectory = out\n"],
                         ids=["sphere", "torus"])
def test_the_readme_lists_the_keys_each_block_reads(tmp_path, monkeypatch, text):
    read = {}
    reject = _Block.reject_unread

    def record(self):
        read[self.name] = set(self._read)
        reject(self)

    monkeypatch.setattr(_Block, "reject_unread", record)
    path = tmp_path / "ok.cfg"
    path.write_text(text)
    parse_config(str(path))
    assert read == {block: _readme_keys(block) for block in ("surface", "run", "output")}


def _shipped_texts() -> list:
    # the configs in configs/ and pool input 0 of each benchmark workload,
    # whose module is imported without writing bytecode under perfbench/
    texts = []
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg"))):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    sys.path.insert(0, ROOT)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        from perfbench.workloads import WORKLOADS, make_config
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(ROOT)
    return texts + [make_config(w, 0) for w in WORKLOADS.values()]


def test_every_key_the_parse_reads_is_set_by_a_shipped_config(tmp_path, monkeypatch):
    # a key that no config or workload sets is a choice the program makes
    # itself, and belongs in the program
    read = set()
    reject = _Block.reject_unread

    def record(self):
        read.update(f"{self.name}.{key}" for key in self._read)
        reject(self)

    monkeypatch.setattr(_Block, "reject_unread", record)
    texts = _shipped_texts()
    for j, text in enumerate(texts):
        path = tmp_path / f"{j}.cfg"
        path.write_text(text)
        try:
            parse_config(str(path))
        except ConfigError:
            pass  # a refused config has recorded the blocks parsed before it
    assert {name.split(".")[0] for name in read} == {"surface", "run", "output"}
    unset = sorted(name for name in read if not any(
        re.search(rf"^{name.split('.')[1]}\s*=", text, re.M | re.I) for text in texts))
    assert unset == []


def test_an_unknown_block_is_a_named_config_error(tmp_path, capsys):
    # a misspelt [output] would otherwise drop the output directory unread
    _rejected_before_anything_runs(tmp_path, capsys, BASE + "[outptu]\ndirectory = out\n",
                                   "outptu: unknown block")


@pytest.mark.parametrize("target, key", [
    ("family = basis\nk = 0\nm = 1\ndecay = 0.5", "decay"),
    ("family = pole\ncap = 0\neta = 0.3\nk = 0", "k"),
    ("family = combination\nseed = 3\norder = 1\neta = 0.3", "eta"),
    ("family = basis\nk = 0\nm = 1\ncap = 0", "cap"),
])
def test_a_parameter_of_another_family_is_a_named_config_error(tmp_path, capsys, target, key):
    text = BASE.replace("family = basis\nk = 0\nm = 1", target)
    _rejected_before_anything_runs(tmp_path, capsys, text, f"target.{key}")


def test_every_target_key_is_a_parameter_of_some_family():
    # and every family parameter can be set from a config
    taken = {name for builder in FAMILIES.values()
             for name in list(inspect.signature(builder).parameters)[1:]}
    assert set(TARGET_PARAMS) == taken


TWO_CAPS = BASE.replace("main = affine scale=1 offset=0",
                        "left = affine scale=0.5 offset=-2\nright = affine scale=0.5 offset=2")


@pytest.mark.parametrize("target, keys", [
    ("seed = 3\nepsilon = 5\nh = 2,0:1", ["target.epsilon", "target.h"]),
    ("seed = 3\norder = 2\nh = 1,1:2", ["target.h"]),
    ("decay = 0.5\nh = 1,0:1", ["target.decay"]),
    ("order = 2\nepsilon = 1", ["target.order"]),
    ("order = 2\ndecay = 0.5\nepsilon = 1", ["target.order", "target.decay"]),
])
def test_a_combination_term_that_would_be_dropped_is_a_named_config_error(
        tmp_path, capsys, target, keys):
    # seeded terms replace explicit ones, and order and decay only shape
    # seeded terms: either mix would run a target the config did not write
    text = TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\n" + target)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert all(key in str(err.value) for key in keys)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    message = capsys.readouterr().err
    assert all(key in message for key in keys)
    assert not (out / "report.json").exists()


ROUNDOFF = "the roundoff limit of a read on the contour radius 0.92"


@pytest.mark.parametrize("name, old, new, message", [
    # a MemoryError from a 1.46 TiB array (exit 1), and a solve that exited 3
    ("sphere_identity", "family = basis\nk = 0\nm = 1", "family = combination\nh = 99999999999,0:1",
     f"target.h: must be <= 211, {ROUNDOFF}, got 99999999999"),
    ("sphere_identity", "family = basis\nk = 0\nm = 1", "family = combination\nh = 300,0:1",
     f"target.h: must be <= 211, {ROUNDOFF}, got 300"),
    # 7.7 s of normal draws, then exit 3
    ("torus_two_caps", "order = 6", "order = 100000",
     f"target.order: must be <= 211, {ROUNDOFF}, got 100000"),
    # ran with no h terms (exit 0)
    ("torus_two_caps", "order = 6", "order = -3", "target.order: must be >= 0, got -3"),
    # an OverflowError (exit 1)
    ("torus_two_caps", "order = 6", "order = 6\ndecay = 1e300",
     "target.decay: 1e+300 to the power 6 overflows a float"),
    # refused at 0.9, short of the depth the solve admits
    ("sphere_joukowski", "eta = 0.55", "eta = 0.92",
     "target.eta: the pole preimage must satisfy |eta| <= 0.9195, got 0.92"),
], ids=["h-order-huge", "h-order-300", "seeded-order-huge", "seeded-order-negative",
        "decay-overflow", "pole-too-deep"])
def test_a_target_parameter_past_its_limit_is_refused_before_a_draw(
        tmp_path, capsys, monkeypatch, name, old, new, message):
    def draw(seed):
        raise AssertionError("the target drew its terms before checking them")

    monkeypatch.setattr(targets, "Pcg64Stream", draw)
    with open(os.path.join(ROOT, "configs", name + ".cfg")) as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert str(err.value) == message
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("target", [
    "seed = 3\norder = 2\ndecay = 0.5",
    "seed = 3",
    "epsilon = 5\nh = 2,0:1",
])
def test_a_combination_of_one_kind_is_accepted(tmp_path, target):
    path = tmp_path / "ok.cfg"
    path.write_text(TWO_CAPS.replace("family = basis\nk = 0\nm = 1",
                                     "family = combination\n" + target))
    assert parse_config(str(path)).target_family == "combination"


@pytest.mark.parametrize("value", ["inf", "Infinity"])
def test_inf_is_the_point_at_infinity_of_the_sphere_only(tmp_path, capsys, value):
    path = tmp_path / "ok.cfg"
    path.write_text(BASE.replace("q = inf\n", f"q = {value}\n"))
    assert parse_config(str(path)).surface.q is None
    torus = BASE.replace("genus = 0\nq = inf\n", f"genus = 1\ntau = 1j\nq = {value}\n")
    _rejected_before_anything_runs(tmp_path, capsys, torus,
                                   "surface.q: must be finite on the torus")


CAP = "main = affine scale=1 offset=0"


@pytest.mark.parametrize("text, message", [
    ("not an ini\n", r"malformed config: File contains no section headers\.\n"
                     r"file: '.*bad\.cfg', line: 1\n'not an ini\\n'"),
    (BASE.replace("q = inf", "q = 1+"), r"surface\.q: not a complex number: '1\+'"),
    (BASE + "l2_tolerance = tight\n", r"run\.l2_tolerance: not a number: 'tight'"),
    (BASE.replace("genus = 0", "genus = one"), r"surface\.genus: not an integer: 'one'"),
    (BASE.replace("genus = 0\n", ""), r"surface\.genus: required"),
    (BASE.replace("genus = 0", "genus = 2"), r"surface\.genus: must be 0 or 1, got 2"),
    (BASE.replace("genus = 0\nq = inf", "genus = 1"), r"surface\.tau: required for genus 1"),
    (BASE.replace("q = inf", "tau = 1j"), r"surface\.tau: not allowed for genus 0"),
    (BASE.replace(CAP, "main ="), r"caps\.main: empty map spec"),
    (BASE.replace(CAP, "main = affine scale=1 offset"),
     r"caps\.main: expected key=value, got 'offset'"),
    (BASE.replace(CAP, "main = polynomial-perturbation coefficients=1,x"),
     r"caps\.main\.coefficients: not a complex number: 'x'"),
    (BASE.replace(CAP + "\n", ""), r"caps: at least one map spec required"),
    (BASE.replace(CAP, CAP + "\ninner = affine scale=0.2 offset=0"),
     r"caps: caps 0 and 1 overlap: a boundary point of cap 1 lies in cap 0"),
    (BASE.replace("family = basis\n", ""), r"target\.family: required"),
    (BASE.replace("m = 1\n", "m = 1\nwibble = 2\n"), r"target\.wibble: unknown parameter"),
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nh = 1;2:1"),
     r"target\.h: expected m,k:value entries separated by ';', got '1'"),
    # the second value replaced the first, while a key or block given twice is refused
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nh = 1,0:1; 1,0:5"),
     r"target\.h: entry \(1, 0\) given twice"),
    (BASE.replace("M = 2\n", ""), r"run\.M: required"),
    # numpy's generators refuse a negative seed: it crashed the target or
    # the first random-point check
    (BASE + "seed = -1\n", r"run\.seed: must be >= 0, got -1"),
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nseed = -3"),
     r"target\.seed: must be >= 0, got -3"),
    # nan parsed as the point at infinity, and the run exited 0
    *[(BASE.replace("q = inf", f"q = {value}"),
       rf"surface\.q: must be finite, got '{value}'")
      for value in ("nan", "-inf", "1e999", "infj")],
    # refused when the target is built
    (BASE.replace("family = basis\nk = 0\nm = 1", "family = pole\ncap = 5"),
     r"target\.cap: cap index 5 out of range"),
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nc = 1"),
     r"target\.c: needs 0 entries, got 1"),
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nepsilon = 1, 2"),
     r"target\.epsilon: needs 1 entries, got 2"),
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nepsilon = 0"),
     r"target: combination target has no nonzero terms"),
    # a number that is not finite: a nan in tau died writing the report
    # (exit 1), an inf offset or a nan Joukowski parameter was refused as a
    # map covering its center more than once, and a nan strength failed the
    # run as a form not finite on a boundary cycle (exit 3)
    (TORUS.replace("tau = 1j", "tau = nan+1j"), r"surface\.tau: must be finite, got 'nan\+1j'"),
    (BASE.replace(CAP, "main = affine scale=1 offset=inf"),
     r"caps\.main\.offset: must be finite, got 'inf'"),
    (BASE.replace(CAP, "main = joukowski-ellipse a=nan scale=1 offset=0"),
     r"caps\.main\.a: must be finite, got 'nan'"),
    (BASE.replace(CAP, "main = polynomial-perturbation coefficients=1,nan"),
     r"caps\.main\.coefficients: must be finite, got 'nan'"),
    (BASE.replace("family = basis\nk = 0\nm = 1", "family = pole\neta = 0.3\nstrength = nan"),
     r"target\.strength: must be finite, got 'nan'"),
    (TWO_CAPS.replace("family = basis\nk = 0\nm = 1", "family = combination\nh = 1,0:inf"),
     r"target\.h: must be finite, got 'inf'"),
    # refused only after the solve, naming no key: a probe ring inside the
    # margin of its genus, and a translation carrying a torus cap out of
    # the cell under the invariance check; a ring over a cap ran (exit 0)
    (BASE + "probe_radius = 1.05\n",
     r"run\.probe_radius: probe point z = 1\.05\+0j is 0\.050 from a cap, inside the margin 0\.1"),
    (TORUS + "probe_radius = 0.58\n",
     r"run\.probe_radius: probe point z = -0\.410122\+0\.410122j is 0\.027 from a cap, "
     r"inside the margin 0\.05"),
    (BASE + "probe_radius = 0.5\n",
     r"run\.probe_radius: probe point z = 0\.5\+0j lies in a closed cap"),
    (TORUS.replace("offset=0.5+0.5j", "offset=0.84+0.5j"),
     r"run\.translation: cap 0 leaves the fundamental cell \(margin 0\.05\); lattice "
     r"coordinates span \[0\.790, 0\.990\] x \[0\.400, 0\.600\]"),
    # a torus cap out of the cell, named by its key: it read "surface: cap 1 ..."
    (TORUS.replace("offset=0.5+0.5j",
                   "offset=0.5+0.5j\nupper = affine scale=0.1 offset=0.5+0.97j"),
     r"caps\.upper: leaves the fundamental cell \(margin 0\.05\); lattice "
     r"coordinates span \[0\.400, 0\.600\] x \[0\.870, 1\.070\]"),
    # configparser's own messages, which named the key only inside a
    # sentence, and a missing block that was named after the message's head
    (BASE + "M = 3\n", r"run\.m: duplicate key on line 13"),
    (BASE + "[run]\nseed = 2\n", r"run: duplicate block on line 13"),
    (BASE.split("[run]")[0], r"run: missing block"),
    (BASE.replace("family = basis", "family = combo"),
     r"target\.family: unknown family 'combo'; choose from \('basis', 'pole', 'combination'\)"),
    (BASE.replace(CAP, "main = frobnicate scale=1"),
     r"caps\.main: unknown map kind 'frobnicate'; choose from \[.*\]"),
    (BASE.replace(CAP, CAP + "\nright = affine scale=1 offset=1.5"),
     r"caps: caps 0 and 1 overlap: a boundary point of cap 0 lies in cap 1"),
], ids=["malformed", "complex", "number", "integer", "genus-required", "genus-range",
        "tau-required", "tau-on-sphere", "empty-map", "key-value", "coefficients",
        "no-caps", "nested-caps", "family-required", "unknown-parameter", "h-entries",
        "h-entry-twice", "M-required", "run-seed", "target-seed", "q-nan", "q-minus-inf", "q-overflow",
        "q-inf-imaginary", "pole-cap-index", "c-length", "epsilon-length", "no-nonzero-terms",
        "tau-nan", "offset-inf", "joukowski-a-nan", "coefficient-nan", "strength-nan", "h-inf",
        "sphere-ring-in-margin", "torus-ring-in-margin", "ring-in-cap", "translation-out-of-cell",
        "cap-out-of-cell", "duplicate-key", "duplicate-block", "missing-block", "unknown-family",
        "unknown-map-kind", "overlapping-caps"])
def test_each_refusal_of_the_parse_names_its_cause(tmp_path, capsys, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{message}$") as err:
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {err.value}\n"
    assert not (out / "report.json").exists()


def test_an_unreadable_config_is_a_named_config_error(tmp_path, capsys):
    path = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match=r"^cannot read config: \[Errno 2\] No such file"):
        parse_config(str(path))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config: ")

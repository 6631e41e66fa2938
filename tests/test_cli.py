"""End-to-end tests of config parsing, the runner, and the CLI exit codes."""

import dataclasses
import json
import os

import numpy as np
import pytest

from faberforms.checks import CHECKS, SAMPLE_POINTS, catalog
from faberforms.cli import main
from faberforms.config import CHECK_NAMES, ConfigError, parse_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIGS, name)


def test_identity_run_passes(tmp_path):
    code = main(["run", cfg("sphere_identity.cfg"), "--out-dir", str(tmp_path)])
    assert code == 0
    for artifact in ("coefficients.csv", "residuals.csv", "report.json"):
        assert (tmp_path / artifact).is_file()


def test_report_round_trip(tmp_path):
    from faberforms.runner import run_experiment

    config = parse_config(cfg("sphere_identity.cfg"))
    report, code = run_experiment(dataclasses.replace(config, out_dir=str(tmp_path)))
    assert code == 0
    with open(tmp_path / "report.json", "r", encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == report
    assert on_disk["passed"] is True
    assert [c["name"] for c in on_disk["checks"]] == list(config.checks)
    # the identity-cap solve recovers the basis target exactly
    h1 = on_disk["decomposition"]  # noqa: F841  (round trip is the assertion)


@pytest.mark.parametrize("name, nodes", [("sphere_identity", 64), ("sphere_joukowski", 256),
                                         ("torus_two_caps", 64)])
def test_report_shows_the_pairing_node_count_and_its_spectral_tail(tmp_path, name, nodes):
    # every passing shipped config reports the node count its measuring
    # circles took and the band content measured there, beside its limit
    assert main(["run", cfg(f"{name}.cfg"), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report.json", "r", encoding="utf-8") as fh:
        dec = json.load(fh)["decomposition"]
    assert dec["pairing_nodes"] == nodes
    tail = dec["spectral_tail"]
    assert tail["limit"] == 1e-12
    assert 0.0 < tail["value"] <= tail["limit"]


def test_csv_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg("sphere_identity.cfg"), "--out-dir", str(d1)]) == 0
    assert main(["run", cfg("sphere_identity.cfg"), "--out-dir", str(d2)]) == 0
    for artifact in ("coefficients.csv", "residuals.csv"):
        b1 = (d1 / artifact).read_bytes()
        b2 = (d2 / artifact).read_bytes()
        assert b1 == b2


def test_coefficients_csv_shape(tmp_path):
    assert main(["run", cfg("sphere_identity.cfg"), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "tag,k,m,re,im"
    tags = [ln.split(",")[0] for ln in lines[1:]]
    assert tags.count("epsilon") == 1
    assert tags.count("h") == 3
    # row h,0,1 carries the recovered unit coefficient
    row = next(ln for ln in lines if ln.startswith("h,0,1,"))
    assert abs(float(row.split(",")[3]) - 1.0) < 1e-10


def test_exit_code_config_error(tmp_path, capsys):
    code = main(["run", cfg("fail_bad_tau.cfg"), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "surface.tau" in err


def test_exit_code_check_failure(tmp_path):
    code = main(["run", cfg("fail_tolerance.cfg"), "--out-dir", str(tmp_path)])
    assert code == 1
    with open(tmp_path / "report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["passed"] is False
    assert report["checks"][0]["name"] == "convergence"
    assert report["checks"][0]["passed"] is False


def test_exit_code_numerical_failure(tmp_path, capsys):
    code = main(["run", cfg("fail_numerics.cfg"), "--out-dir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "regulariz" in err
    with open(tmp_path / "report.json", "r", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["decomposition"]["regularized"] is True


def test_a_misspelt_strict_is_a_config_error(tmp_path, capsys):
    # a misspelling read as false would turn fail_numerics' exit 3 into 0
    text = open(cfg("fail_numerics.cfg"), encoding="utf-8").read()
    assert "strict = true\n" in text
    path = tmp_path / "misspelt.cfg"
    path.write_text(text.replace("strict = true\n", "strict = ture\n"))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: run.strict: not a boolean: 'ture'\n"
    assert not (out / "report.json").exists()
    # configparser's spellings of the two states parse
    for raw, strict in (("on", True), ("1", True), ("No", False), ("off", False)):
        path.write_text(text.replace("strict = true\n", f"strict = {raw}\n"))
        assert parse_config(str(path)).strict is strict


def test_seed_override_changes_nothing_deterministic(tmp_path):
    # the identity run has no randomness in its artifacts beyond the seed
    # echoed into the report
    d1, d2 = tmp_path / "a", tmp_path / "b"
    with open(cfg("sphere_identity.cfg")) as fh:
        text = fh.read()
    assert "seed = 1\n" in text and "strict" not in text
    reseeded = tmp_path / "reseeded.cfg"
    reseeded.write_text(text.replace("seed = 1\n", "seed = 77\nstrict = true\n"))
    assert main(["run", cfg("sphere_identity.cfg"), "--out-dir", str(d1)]) == 0
    assert main(["run", str(reseeded), "--out-dir", str(d2)]) == 0
    with open(d1 / "report.json") as fh:
        r1 = json.load(fh)
    with open(d2 / "report.json") as fh:
        r2 = json.load(fh)
    assert r1["run"]["seed"] == 1
    assert r2["run"]["seed"] == 77
    assert (r1["run"]["strict"], r2["run"]["strict"]) == (False, True)
    assert (d1 / "coefficients.csv").read_bytes() == (d2 / "coefficients.csv").read_bytes()


def test_run_takes_only_a_config_and_an_out_dir(capsys):
    # run.seed and run.strict are set in the config alone
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage: faberforms run [-h] [--out-dir OUT_DIR] config\n")
    for flag in ("--seed", "--strict"):
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg("sphere_identity.cfg"), flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_list_checks_matches_accepted_names(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name in CHECK_NAMES:
        assert name in out
    assert tuple(CHECKS) == CHECK_NAMES
    assert catalog() in out


def test_unknown_check_named(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[surface]\ngenus = 0\n[caps]\nmain = affine scale=1 offset=0\n"
        "[target]\nfamily = basis\nk = 0\nm = 1\n[run]\nM = 2\nchecks = wibble\n"
    )
    with pytest.raises(ConfigError, match="run.checks"):
        parse_config(str(bad))
    assert main(["run", str(bad)]) == 2


def test_missing_block_named(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[surface]\ngenus = 0\n[caps]\nmain = affine scale=1 offset=0\n")
    with pytest.raises(ConfigError, match=r"^target: missing block$"):
        parse_config(str(bad))


def test_bad_map_spec_named(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "[surface]\ngenus = 0\n[caps]\nmain = frobnicate scale=1\n"
        "[target]\nfamily = basis\nk = 0\nm = 1\n[run]\nM = 2\n"
    )
    with pytest.raises(ConfigError, match="caps.main"):
        parse_config(str(bad))


def test_parse_config_fields():
    config = parse_config(cfg("torus_two_caps.cfg"))
    assert config.surface.genus == 1
    assert config.surface.n_caps == 2
    assert config.M == 10
    assert config.target_family == "combination"
    assert config.target_params == {"seed": 3, "order": 6}
    assert config.checks == CHECK_NAMES
    # the checks' point count is a constant, the former default
    assert SAMPLE_POINTS == 100 and len(dataclasses.fields(config)) == 16
    assert np.isclose(config.translation, 0.05)
    assert config.out_dir == "runs/torus-two-caps"


def test_inline_comments_and_defaults(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "[surface]\ngenus = 0  # a sphere\n"
        "[caps]\nmain = affine scale=0.5 offset=0\n"
        "[target]\nfamily = basis\nk = 0\nm = 2\n"
        "[run]\nM = 4\n"
    )
    config = parse_config(str(path))
    assert config.checks == ()
    assert config.seed == 0
    assert config.out_dir is None
    assert config.probe_radius is None  # the run picks the probe ring
    from faberforms.config import probe_ring

    ring = probe_ring(config)
    assert ring.size == 40
    assert np.allclose(np.abs(ring), 1.25)  # 0.75 outside the cap of radius 0.5


def test_one_record_from_parse_to_report():
    from faberforms.config import ExperimentConfig
    from faberforms.runner import RunContext

    config = parse_config(cfg("sphere_identity.cfg"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 2
    # the run's context adds only what the solve produced
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(RunContext.__annotations__) == {"decomposition", "sup_errors"}
    assert {f.name for f in dataclasses.fields(RunContext)} == config_fields | {
        "decomposition", "sup_errors"}


def test_a_torus_whose_caps_block_every_lattice_cycle_is_a_config_error(tmp_path, capsys):
    # the cycle-base search runs in the solve, not the parse; its refusal
    # names the cause and exits 2 (lattice row 0 passes 0.5 - 0.43 = 0.07
    # below the cap)
    path = tmp_path / "blocked.cfg"
    path.write_text(
        "[surface]\ngenus = 1\ntau = 0+1j\n"
        "[caps]\nmain = affine scale=0.43 offset=0.5+0.5j\n"
        "[target]\nfamily = basis\nk = 0\nm = 1\n[run]\nM = 2\n"
    )
    parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: no lattice cycle clears the caps (best clearance 0.07)\n"
    assert not (out / "report.json").exists()

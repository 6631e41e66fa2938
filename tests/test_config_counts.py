"""The counts in [run] must be positive: a zero or negative count is a
config error that names its field and exits 2 before anything runs."""

import pytest

from faberforms.cli import main
from faberforms.config import ConfigError, parse_config

BASE = (
    "[surface]\ngenus = 0\nq = inf\n"
    "[caps]\nmain = affine scale=1 offset=0\n"
    "[target]\nfamily = basis\nk = 0\nm = 1\n"
    "[run]\nM = 2\nchecks = pole-structure, harmonicity, uniform convergence, invariance\n"
)


@pytest.mark.parametrize("field", ["samples", "probe_points", "pole_orders", "invariance_order"])
@pytest.mark.parametrize("value", [0, -3])
def test_nonpositive_run_count_is_a_named_config_error(tmp_path, capsys, field, value):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE + f"{field} = {value}\n")
    with pytest.raises(ConfigError, match=rf"run\.{field}: must be >= 1, got {value}"):
        parse_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert f"run.{field}" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("field", ["samples", "probe_points", "pole_orders", "invariance_order"])
def test_a_count_of_one_is_accepted(tmp_path, field):
    path = tmp_path / "ok.cfg"
    path.write_text(BASE + f"{field} = 1\n")
    assert getattr(parse_config(str(path)), field) == 1

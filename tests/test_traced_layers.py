"""The layer names ``perfbench/tracer.py`` traces are the reads a run makes.

A fresh interpreter, with bytecode writing off so that nothing is written
under ``perfbench/``, installs the benchmark's ``Tracer`` and runs the
torus and sphere-identity configs through ``cli.main``. Every ``LAYERS``
name but the wrappers that only the unit tests call must then have
recorded a span: a name a run never enters reads 0 in every benchmark
figure, however slow the read it stands for."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the tracer's names that no run enters: wrappers of the run's reads that
# the unit tests and demos call
TEST_ONLY = {
    "surface.period",
    "series.boundary_coefficients",
    "series.cycle_coefficients",
    "series.ExteriorPairing.data",
    "series.invariance_check",
}

SCRIPT = """
import contextlib, io, json, os, sys, tempfile
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import faberforms.cli as cli
import tracer as tracing
tracer = tracing.Tracer().install()
codes = []
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    for name in ("torus_two_caps", "sphere_identity"):
        cfg = os.path.join(root, "configs", name + ".cfg")
        codes.append(cli.main(["run", cfg, "--out-dir", os.path.join(out, name)]))
entered = {tracer.names[span[0]] for span in tracer.spans}
print(json.dumps({"codes": codes,
                  "unentered": sorted({layer[2] for layer in tracing.LAYERS} - entered)}))
"""


def test_every_traced_layer_but_the_test_only_wrappers_is_entered_by_a_run():
    done = subprocess.run([sys.executable, "-B", "-c", SCRIPT, str(ROOT)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert set(result["unentered"]) == TEST_ONLY

"""The package functions that no config, demo or pool input enters.

``tests/unreached_code.py`` runs in a fresh interpreter, with bytecode
writing off so that nothing is written under ``perfbench/``, and the
functions it lists as entered by no run must be the ones named below:
code that only the unit tests reach. A function that leaves a run's path
joins the list and fails this test; one that a run comes to enter, or
that is deleted, leaves it and fails it too, until the list is updated."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNENTERED = [
    "checks.py: catalog",
    "conformal.py: ConformalMap._evaluate",
    "conformal.py: ConformalMap._derivative",
    "conformal.py: ConformalMap.__repr__",
    "faber.py: LaurentTail.order",
    "geometry.py: CapOutsideCell.__init__",
    "geometry.py: Sphere.__repr__",
    "geometry.py: Sphere.cycle_base",
    "geometry.py: Torus.__repr__",
    "numerics.py: DiskGrid.integrate",
    "numerics.py: area_pairing",
    "numerics.py: area_pairing.<locals>.evaluate",
    "numerics.py: _standard_normal.<locals>.uniform",
    "series.py: ExteriorPairing.data",
    "series.py: boundary_coefficients",
    "series.py: cycle_coefficients",
    "surface.py: Cycle.name",
    "surface.py: SurfaceSpec.__repr__",
    "surface.py: period",
]


def test_the_functions_no_run_enters_are_the_listed_ones():
    done = subprocess.run([sys.executable, "-B", str(ROOT / "tests" / "unreached_code.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    listed = [re.sub(r":\d+:", ":", line) for line in lines if re.match(r"\w+\.py:\d+: ", line)]
    assert listed == UNENTERED
    assert re.fullmatch(rf"{len(UNENTERED)} of \d+ functions entered by no run", lines[-1])

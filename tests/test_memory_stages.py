"""Smoke test of the opt-in tool ``tests/memory_stages.py``: one config in
a fresh process, one row of VmHWM, VmRSS, RssAnon, RssFile, minor faults
and the numpy subpackages first loaded per stage."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_memory_stages_reports_every_stage_of_a_sphere_run():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "memory_stages.py"),
         str(ROOT / "configs" / "sphere_identity.cfg")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["stage", "VmHWM", "MB", "VmRSS", "MB", "RssAnon", "MB", "RssFile", "MB",
                              "minflt", "loaded", "first"]
    stages = [row.rsplit(None, 6)[0] for row in rows]
    # the sphere has no cycle base; the config asks for three checks
    assert stages[:4] == ["import", "parse", "project_faber", "sup errors"]
    assert len(stages) > 4 and all(name.startswith("check ") for name in stages[4:])
    # the first Laurent reads load numpy.fft; nothing loads numpy.random,
    # numpy.polynomial or _hashlib
    loaded = {name: row.rsplit(None, 1)[1] for name, row in zip(stages, rows)}
    assert loaded["project_faber"] == "numpy.fft"
    assert all(modules == "-" for name, modules in loaded.items() if name != "project_faber")
    figures = [[float(x) for x in row.rsplit(None, 6)[1:6]] for row in rows]
    hwm, rss, rss_anon, rss_file, faults = zip(*figures)
    # cumulative figures of one process: the high-water mark and the fault
    # count never fall, the resident size never exceeds the mark, and its
    # anonymous part (the heap, at least) and file-backed part (numpy's and
    # the interpreter's code, at least) are disjoint parts of it, up to the
    # rounding of the printed figures
    assert list(hwm) == sorted(hwm) and list(faults) == sorted(faults)
    assert all(0 < r <= h for r, h in zip(rss, hwm))
    assert all(0 < a and 0 < f and a + f <= r + 0.01 for a, f, r in zip(rss_anon, rss_file, rss))

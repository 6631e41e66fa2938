"""Smoke test of the opt-in tool ``tests/memory_stages.py``: one config in
a fresh process, one row of elapsed seconds, VmHWM, VmRSS, RssAnon,
RssFile, minor faults, VmRSS, RssAnon and RssFile in integer kB, and the
numpy subpackages first loaded per stage."""

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
    assert header.split() == ["stage", "seconds", "VmHWM", "MB", "VmRSS", "MB", "RssAnon", "MB", "RssFile", "MB",
                              "minflt", "VmRSS", "kB", "RssAnon", "kB", "RssFile", "kB",
                              "loaded", "first"]
    stages = [row.rsplit(None, 10)[0] for row in rows]
    # the sphere has no cycle base; the config asks for three checks
    assert stages[:4] == ["import", "parse", "project_faber", "sup errors"]
    assert len(stages) > 4 and all(name.startswith("check ") for name in stages[4:])
    # the first Laurent reads load numpy.fft; nothing loads numpy.random,
    # numpy.polynomial or _hashlib
    loaded = {name: row.rsplit(None, 1)[1] for name, row in zip(stages, rows)}
    assert loaded["project_faber"] == "numpy.fft"
    assert all(modules == "-" for name, modules in loaded.items() if name != "project_faber")
    figures = [[float(x) for x in row.rsplit(None, 10)[1:7]] for row in rows]
    seconds, hwm, rss, _anon, _file, faults = zip(*figures)
    kb = [[int(x) for x in row.rsplit(None, 10)[7:10]] for row in rows]
    # cumulative figures of one process: the high-water mark and the fault
    # count never fall, the resident size never exceeds the mark, and its
    # anonymous part (the heap, at least) and file-backed part (numpy's and
    # the interpreter's code, at least) are disjoint parts of it, held
    # exactly on the kernel's integer kB, since the MB figures are each
    # rounded to 0.01
    assert list(hwm) == sorted(hwm) and list(faults) == sorted(faults)
    # each stage's own elapsed time, not a running total
    assert all(0 <= s for s in seconds) and sum(seconds) < 120
    assert all(0 < r <= h for r, h in zip(rss, hwm))
    assert all(0 < a and 0 < f and a + f <= r for r, a, f in kb)

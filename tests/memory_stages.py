"""Peak resident memory and minor page faults after each stage of one run.

Run from the repository root, one config per process:

    python tests/memory_stages.py CONFIG

It runs the stages of ``faberforms run CONFIG`` in this process, in the
runner's order, and after each one prints the stage's elapsed seconds
(``time.perf_counter``; the import stage counts from before numpy's
import), the process's VmHWM, VmRSS, RssAnon and RssFile (from
``/proc/self/status``, in MB), its minor page faults so far
(``resource.getrusage``), VmRSS, RssAnon and RssFile again as the
integer kB the kernel reports, and the numpy subpackages
(``numpy.<name>``) and ``_hashlib`` that the stage loaded first,
comma-separated, or ``-``.
The import stage names what the package's import loads beyond numpy's
own. The stages are: import, parse, cycle base (torus only),
project_faber, the sup errors on the probe ring, then each check of the
config. Nothing is written to disk. Every figure but the seconds is
cumulative from the start of the process, so run it in a fresh process
for each config; a
VmHWM that rises at a stage was set by that stage, and the modules named
beside it often say why. VmRSS is RssAnon plus RssFile plus RssShmem.
RssAnon is the anonymous part, the heap and numpy's mapped arrays: a
stage whose RssAnon rises grew them. RssFile is the part mapped from
files, mostly library code pages: a stage whose RssFile rises paged in
code (a library call used for the first time). The MB figures are each
rounded to 0.01 MB, so only the kB columns compare exactly: RssAnon +
RssFile <= VmRSS holds on them. Pytest does not collect
this file, and the tier-1 run only smoke-tests it.
"""

import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


STATUS_FIELDS = ("VmHWM", "VmRSS", "RssAnon", "RssFile")


def memory() -> tuple:
    """(VmHWM, VmRSS, RssAnon, RssFile, all in kB, and minor faults) of
    this process so far."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in STATUS_FIELDS:
                fields[key] = int(value.split()[0])
    return (*(fields[key] for key in STATUS_FIELDS),
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


def first_loaded(seen: set) -> str:
    """The ``numpy.<name>`` subpackages and ``_hashlib`` in sys.modules
    that are not in ``seen``, comma-separated or ``-``; adds them to it."""
    names = {".".join(name.split(".")[:2]) for name in sys.modules
             if name.startswith("numpy.") or name == "_hashlib"}
    new = sorted(names - seen)
    seen.update(new)
    return ",".join(new) or "-"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tests/memory_stages.py CONFIG", file=sys.stderr)
        return 2
    rows, seen, clock = [], set(), time.perf_counter()

    def stage(name: str):
        nonlocal clock
        seconds = time.perf_counter() - clock
        rows.append((name, seconds) + memory() + (first_loaded(seen),))
        clock = time.perf_counter()  # the next stage starts after these reads

    sys.path.insert(0, os.path.join(ROOT, "src"))
    __import__("numpy")
    first_loaded(seen)  # numpy's own import
    from faberforms import checks, config, runner, series

    stage("import")
    cfg = config.parse_config(argv[0])
    stage("parse")
    surface = cfg.surface
    if surface.genus == 1:
        surface.cycle_base()
        stage("cycle base")
    dec = series.project_faber(cfg.target, surface, cfg.M, condition_limit=cfg.condition_limit)
    stage("project_faber")
    sups = series.uniform_error(cfg.target, surface, dec, config.probe_ring(cfg),
                                [order for order, _l2 in dec.residual_history])
    stage("sup errors")
    ctx = runner.RunContext(**vars(cfg), decomposition=dec, sup_errors=tuple(sups))
    for name in cfg.checks:
        checks.CHECKS[name][0](ctx)
        stage(f"check {name}")

    print(f"{'stage':<28} {'seconds':>8} {'VmHWM MB':>9} {'VmRSS MB':>9} {'RssAnon MB':>10} {'RssFile MB':>10}"
          f" {'minflt':>8} {'VmRSS kB':>9} {'RssAnon kB':>10} {'RssFile kB':>10}  loaded first")
    for name, seconds, hwm, rss, rss_anon, rss_file, faults, loaded in rows:
        print(f"{name:<28} {seconds:>8.4f} {hwm / 1024:>9.2f} {rss / 1024:>9.2f} {rss_anon / 1024:>10.2f}"
              f" {rss_file / 1024:>10.2f} {faults:>8d} {rss:>9d} {rss_anon:>10d} {rss_file:>10d}"
              f"  {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

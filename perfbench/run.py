"""faberforms benchmark: time to a verified decomposition.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/ and
BENCHMARK.json). Closed loop with one client: every run is a fresh
`faberforms run <generated config>` process (perfbench/child.py), started
only after the previous one exited, never two at once. Each invocation:

1. a set-up-only warm-up process, discarded, so byte-compiling and cold
   file caches land in no measurement;
2. with --trace 0: the workload's inputs in the order the seed gives,
   one process each, for about S seconds and at least MIN_SAMPLES runs,
   with the host-speed probe (perfbench/calibrate.py) before the first
   run and after every run;
   with --trace 1: the seed's first input untraced, with the probe on
   either side, then traced;
3. a table of every metric on standard output, then one JSON line with
   the metrics BENCHMARK.json declares for the mode.

The timings in the JSON line, wall_s and setup_s, are rescaled to the
probe's nominal host speed: the median seconds of the runs times
calibrate.host_scale(the workload's probe, median probe time). The
host's speed drifts by tens of percent over minutes, and the probe
follows it. The table also shows the seconds as measured (wall_raw_s,
setup_raw_s) and the probe times.

Every run passes the correctness gate (perfbench/gate.py) or counts as
failed. BLAS thread variables default to 1 in the runs; set them in the
environment to override. Work files go to .perfbench_work/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set before numpy loads: the probe in this process runs single-threaded,
# like the runs, which inherit these
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import POOL_SIZE, WARMUP_CONFIG, WORKLOADS, input_order, make_config  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_DIR = ".perfbench_work"
# every child must have exited this long after the benchmark started
DEADLINE_S = 170.0
MIN_SAMPLES = 2


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def environment(root: str, child_env: dict) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        openblas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "faberforms")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **{var: child_env.get(var) for var in BLAS_THREAD_VARS},
    }


class Child:
    """One finished process: wall time, peak RSS and gate result."""

    def __init__(self, label, out_dir, code, wall_s, rss_mb, result):
        self.label, self.out_dir, self.code = label, out_dir, code
        self.wall_s, self.rss_mb, self.result = wall_s, rss_mb, result

    @property
    def breaches(self):
        return self.result["breaches"]


class Bench:
    def __init__(self, root: str, work: str):
        self.root, self.work = root, work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), self.env.get("PYTHONPATH")]))
        self.t_start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def run(self, label: str, config_text: str, setup_only=False, trace=False,
            reference=None) -> Child:
        out_dir = os.path.join(self.work, label)
        os.makedirs(out_dir)
        config = os.path.join(out_dir, "run.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        argv = [sys.executable, CHILD, config, out_dir]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv += ["--trace", os.path.join(out_dir, "spans.json")]
        timeout = max(5.0, DEADLINE_S - self.elapsed())
        with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if setup_only:
            result = {"breaches": [] if proc.returncode == 0 else
                      [f"exit code {proc.returncode}"]}
        else:
            result = gate.inspect_run(out_dir, proc.returncode, reference)
        # the child's own figure; ru_maxrss also counts this process's peak
        rss_mb = result.get("peak_rss_mb") or usage.ru_maxrss / 1024.0
        child = Child(label, out_dir, proc.returncode, wall, rss_mb, result)
        for breach in child.breaches:
            print(f"# {label}: {breach}", file=sys.stderr)
        return child


def high_percentile(values):
    """(P, value): the highest nearest-rank percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise SetupError(f"no BENCHMARK.json in {root}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.csv")
    if not os.path.isfile(path):
        raise SetupError(f"missing reference coefficients {path}")
    reference = gate.read_reference(path)
    if sorted(reference) != list(range(POOL_SIZE)):
        raise SetupError(f"{path} does not cover inputs 0..{POOL_SIZE - 1}")
    return reference


def end_to_end(timed, probe_kind, probes) -> dict:
    """Every end-to-end figure of the timed runs: (value, unit, detail).
    ``probes`` are the times of the probe ``probe_kind`` taken around
    them (calibrate.probe)."""
    good = [c for c in timed if "coef_err" in c.result]
    walls = [c.wall_s for c in timed]
    setups = [c.result["setup_s"] for c in good]
    scale = calibrate.host_scale(probe_kind, statistics.median(probes))

    def timing(values, note=""):
        if not values:
            return None
        pct = high_percentile(values)
        tail = f", p{pct[0]} {pct[1]:.4f}" if pct else ", no percentile with 10 samples above"
        return (statistics.median(values), "s",
                f"median of {len(values)} (min {min(values):.4f}, max {max(values):.4f}{tail})"
                + note)

    def rescaled(values):
        return timing([v * scale for v in values], f", measured times {scale:.4f} for host speed")

    out = {
        "wall_s": rescaled(walls),
        "setup_s": rescaled(setups),
        "wall_raw_s": timing(walls),
        "setup_raw_s": timing(setups),
        "probe_s": timing(probes),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in timed), "MB",
                        f"median of {len(timed)} runs"),
    }
    if good:
        out.update(
            coef_err=(max(c.result["coef_err"] for c in good), "1",
                      f"max |solved - construction|, gate {gate.COEF_TOL:g}"),
            ref_dev=(max(c.result["ref_dev"] for c in good), "1",
                     f"max |solved - seed-code reference|, gate {gate.REF_TOL:g}"),
            l2_residual=(max(c.result["l2_residual"] for c in good), "1",
                         "max over runs of the last residuals.csv row"),
            sup_error=(max(c.result["sup_error"] for c in good), "1",
                       "max over runs of the last residuals.csv row"),
            check_margin_decades=(min(c.result["check_margin_decades"] for c in good),
                                  "decades", "min over runs and checks of log10(threshold/value)"),
        )
    return {k: v for k, v in out.items() if v is not None}


def per_layer(names, spans, untraced: Child, traced: Child) -> dict:
    """Every per-layer figure: <span>.<calls|points|s|self_s> for each
    traced layer plus the setup share of the cycle-base search and the
    tracing overhead."""
    summary = tracer.summarize(names, spans)
    out = {}
    # names holds every wrapped layer, called or not, so idle layers read 0
    for span in names:
        row = summary.get(span, {"calls": 0, "points": 0, "s": 0.0, "self_s": 0.0})
        for field, unit in (("calls", "count"), ("points", "count"), ("s", "s"),
                            ("self_s", "s")):
            out[f"{span}.{field}"] = (row[field], unit, "")
    out["setup.surface.cycle_base.s"] = (
        tracer.time_within(names, spans, "surface.cycle_base", "config.parse_config"), "s",
        "cycle-base search inside config.parse_config")
    out["trace.untraced_wall_s"] = (untraced.wall_s, "s", "")
    out["trace.traced_wall_s"] = (traced.wall_s, "s", "")
    out["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s",
                               "traced wall_s minus untraced wall_s")
    out["trace.spans"] = (len(spans), "count", "spans recorded")
    return out


def run_benchmark(args, root: str) -> int:
    spec = load_spec(root)
    if args.workload not in WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(root, "src", "faberforms", "__init__.py")):
        raise SetupError(f"no faberforms sources under {root}/src")
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name)

    work = os.path.join(root, WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, work)
    env = environment(root, bench.env)
    print("# env " + json.dumps(env, sort_keys=True))

    order = input_order(workload, args.seed)

    def sample(label, index, trace=False):
        return bench.run(f"{label}-input-{index}", make_config(workload, index), trace=trace,
                         reference=reference[index])

    probes = []

    def probed_sample(label, index):
        """An untraced run, with the host-speed probe before and after."""
        if not probes:
            calibrate.probe(workload.probe)  # the first pays for numpy and BLAS start-up
            probes.append(calibrate.probe(workload.probe))
        child = sample(label, index)
        probes.append(calibrate.probe(workload.probe))
        return child

    warm = bench.run("warmup", WARMUP_CONFIG, setup_only=True)
    extra = {}
    if args.trace:
        untraced = probed_sample("untraced", order[0])
        traced = sample("traced", order[0], trace=True)
        timed = [untraced]
        if "coefficients" in untraced.result and "coefficients" in traced.result:
            dev = gate.max_deviation(traced.result["coefficients"],
                                     untraced.result["coefficients"])
            if not dev <= gate.REF_TOL:
                traced.breaches.append(f"traced coefficients moved by {dev:.3e}")
                print(f"# traced: {traced.breaches[-1]}", file=sys.stderr)
        spans_path = os.path.join(traced.out_dir, "spans.json")
        if os.path.isfile(spans_path):
            extra = per_layer(*tracer.load(spans_path), untraced, traced)
            shutil.copyfile(spans_path, os.path.join(root, WORK_DIR,
                                                     f"{workload.name}.spans.json"))
        everything = [warm, untraced, traced]
    else:
        timed = []
        lap_s = []  # one run plus the probe after it
        t_loop = time.perf_counter()
        while True:
            t_lap = time.perf_counter()
            timed.append(probed_sample(f"run{len(timed)}", order[len(timed) % len(order)]))
            lap_s.append(time.perf_counter() - t_lap)
            typical = statistics.median(lap_s)
            if bench.elapsed() + 1.5 * typical > DEADLINE_S or (
                    len(timed) >= MIN_SAMPLES
                    and time.perf_counter() - t_loop + typical > args.seconds):
                break
        everything = [warm] + timed

    figures = end_to_end(timed, workload.probe, probes)
    attempted = len(everything)
    failed = sum(1 for c in everything if c.breaches)
    figures["failed_share"] = (failed / attempted, "1", f"{failed} of {attempted} runs failed")
    figures.update(extra)

    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds}")
    for name, (value, unit, detail) in figures.items():
        print(f"{name:44s} {value:>14.6g} {unit:8s} {detail}")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for entry in declared:
        if entry["name"] in figures:
            value, unit, _detail = figures[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            if unit != entry["unit"]:
                raise SetupError(f"{entry['name']}: unit {unit} but BENCHMARK.json says "
                                 f"{entry['unit']}")
        else:
            missing.append(entry["name"])
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"# failed runs kept in {work}", file=sys.stderr)
    if missing:
        print(f"# no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_benchmark(args, os.getcwd())
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

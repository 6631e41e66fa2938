"""One `faberforms run` process, with its set-up timed from inside.

    python3 perfbench/child.py CONFIG OUT_DIR [--setup-only] [--trace SPANS]

Set-up is ``import faberforms`` plus ``config.parse_config``; the parse
is timed by wrapping the entry point's own ``parse_config``, so the run
parses once, exactly as ``faberforms run CONFIG --out-dir OUT_DIR`` does.
OUT_DIR/bench.json receives the set-up time, the process's peak RSS and
the target's construction coefficients as rows (tag, k, m, re, im). With
--trace the layer spans are written to SPANS when the run ends. The exit
code is the entry point's.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import faberforms.cli as cli  # noqa: E402


def construction_rows(config) -> list:
    """Known coefficients of the target at the config's truncation order."""
    known = config.target.known or {}
    n, M = config.surface.n_caps, config.M
    rows = [["epsilon", k, "", v] for k, v in enumerate(known.get("epsilon", ()))]
    rows += [["c", i, "", v] for i, v in enumerate(known.get("c", ()))]
    column = known.get("h_column")
    h = known.get("h")
    if column is not None:
        k0, value = column
        rows += [["h", k, m, value(m) if k == k0 else 0.0]
                 for m in range(1, M + 1) for k in range(n)]
    elif h is not None:
        rows += [["h", k, m, h.get((m, k), 0.0)] for m in range(1, M + 1) for k in range(n)]
    return [[tag, k, m, complex(v).real, complex(v).imag] for tag, k, m, v in rows]


def peak_rss_mb() -> float:
    """This process's own peak RSS. ru_maxrss is no substitute: a child
    started by vfork also inherits its parent's peak at exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer().install()

    record = {}
    parse = cli.parse_config

    def timed_parse(path):
        config = parse(path)
        record["setup_s"] = time.perf_counter() - T_START
        record["construction"] = construction_rows(config)
        return config

    cli.parse_config = timed_parse
    try:
        if args.setup_only:
            timed_parse(args.config)
            code = 0
        else:
            code = cli.main(["run", args.config, "--out-dir", args.out_dir])
    finally:
        if tracer is not None:
            tracer.dump(args.trace)
    record["peak_rss_mb"] = peak_rss_mb()
    with open(os.path.join(args.out_dir, "bench.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Write the reference coefficients the benchmark's gate compares against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose answers are the
reference. Solves every pool input of each workload and writes the
coefficients.csv rows, prefixed by the input index, to
perfbench/reference/<workload>.csv. An input whose run breaches any other
part of the gate stops the script before that file is written.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import REFERENCE_DIR, WORK_DIR, Bench
from workloads import POOL_SIZE, REFERENCE_CHECKS, WORKLOADS, make_config


def main(names) -> int:
    root = os.getcwd()
    work = os.path.join(root, WORK_DIR, f"reference-{os.getpid()}")
    os.makedirs(work)
    for name in names or sorted(WORKLOADS):
        lines = ["input,tag,k,m,re,im"]
        for index in range(POOL_SIZE):
            config = make_config(WORKLOADS[name], index, checks=REFERENCE_CHECKS)
            # a fresh Bench per input: its deadline counts from its creation
            child = Bench(root, work).run(f"{name}-{index}", config, reference=None)
            if child.breaches:
                print(f"{name} input {index}: {child.breaches}", file=sys.stderr)
                return 1
            with open(os.path.join(child.out_dir, "coefficients.csv"), encoding="utf-8") as fh:
                lines += [f"{index},{row}" for row in fh.read().splitlines()[1:]]
            print(f"{name} input {index}: {child.wall_s:.1f} s, "
                  f"coef_err {child.result['coef_err']:.3e}", flush=True)
        with open(os.path.join(REFERENCE_DIR, f"{name}.csv"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

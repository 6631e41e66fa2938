"""Seeded INI configs for the benchmark workloads.

Every workload has a fixed shape: cap kinds, truncation order M, target
family and order, and check list never change. Its inputs form a pool of
POOL_SIZE configs; input j jitters the cap offsets and redraws a seeded
target from j alone, so every input asks the program for the same amount
of work on a slightly different surface. A benchmark seed picks the
order in which a run visits the pool. The pool is finite so that the
seed code's coefficients for every input can be committed as the
reference (perfbench/reference/). The program only ever sees the
generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL_SIZE = 16

# Making the reference only needs the solved coefficients, so it skips the
# expensive checks; checks never change the coefficients.
REFERENCE_CHECKS = "convergence"


@dataclass(frozen=True)
class Cap:
    key: str
    spec: str        # map spec without its offset
    offset: complex  # offset at zero jitter
    jitter: float    # each coordinate of the offset moves within +-jitter


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    surface: str     # [surface] block body
    caps: tuple
    target: str      # [target] block body; {target_seed} is filled per config
    run: str         # [run] block body; {checks} is filled per config
    checks: str
    probe: str       # host-speed probe (calibrate.PROBES) like the workload's work


WORKLOADS = {w.name: w for w in (
    Workload(
        name="torus-solve",
        why="two affine torus caps and a seeded combination target: theta kernel "
            "and contour sums driven by re-sampling the target on fixed boundary nodes",
        surface="genus = 1\ntau = 0.3+1.1j",
        caps=(
            Cap("lower", "affine scale=0.11", 0.39 + 0.33j, 0.03),
            Cap("upper", "affine scale=0.11", 0.924 + 0.748j, 0.03),
        ),
        target="family = combination\nseed = {target_seed}\norder = 1",
        run="M = 2\nchecks = {checks}\nseed = 5\nl2_tolerance = 1e-7\nsup_tolerance = 1e-7",
        checks="convergence, uniform convergence",
        probe="streaming",
    ),
    Workload(
        name="torus-verify",
        why="torus check path: area grids, principal-part reads and random points, "
            "off the solve's fixed node sets, so a node-set cache should not help here",
        surface="genus = 1\ntau = 0.3+1.1j",
        caps=(
            Cap("lower", "affine scale=0.11", 0.39 + 0.33j, 0.03),
            Cap("upper", "joukowski-ellipse a=0.2 scale=0.1", 0.924 + 0.748j, 0.03),
        ),
        target="family = basis\nk = 1\nm = 1",
        run="M = 1\nchecks = {checks}\nseed = 5\npole_orders = 1\n"
            "l2_tolerance = 1e-7\nsup_tolerance = 1e-7",
        checks="pole-structure, harmonicity, q-independence, r0-independence, convergence",
        probe="streaming",
    ),
    Workload(
        name="sphere-multicap",
        why="three sphere caps, one per map kind, M = 40 and no theta calls: Gram "
            "assembly, least squares and the winding-number guard dominate",
        surface="genus = 0\nq = inf",
        caps=(
            Cap("ellipse", "joukowski-ellipse a=0.25 scale=1", 0j, 0.05),
            Cap("disk", "affine scale=0.5", 3 + 0.5j, 0.2),
            Cap("poly", "polynomial-perturbation coefficients=0.6,0.08,0.02",
                -1.2 + 2.8j, 0.2),
        ),
        target="family = pole\ncap = 0\neta = 0.55\nstrength = 1",
        run="M = 40\nchecks = {checks}\nseed = 2\nl2_tolerance = 1e-6\nsup_tolerance = 1e-6",
        checks="convergence, uniform convergence",
        probe="cached",
    ),
)}

# Set-up-only warm-up: one identity cap on the sphere, cheap to parse, but
# it imports and byte-compiles the same modules every workload uses.
WARMUP_CONFIG = """[surface]
genus = 0
q = inf

[caps]
main = affine scale=1 offset=0

[target]
family = basis
k = 0
m = 1

[run]
M = 1
"""


def _complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}j"


def make_config(workload: Workload, index: int, checks: str | None = None) -> str:
    """Config text of pool input ``index``: the same arguments give the
    same text. ``checks`` replaces the workload's check list."""
    if not 0 <= index < POOL_SIZE:
        raise ValueError(f"input {index} outside the pool 0..{POOL_SIZE - 1}")
    rng = random.Random(f"{workload.name}/{index}")
    cap_lines = []
    for cap in workload.caps:
        offset = cap.offset + complex(rng.uniform(-cap.jitter, cap.jitter),
                                      rng.uniform(-cap.jitter, cap.jitter))
        cap_lines.append(f"{cap.key} = {cap.spec} offset={_complex(offset)}")
    target = workload.target.format(target_seed=rng.randrange(2**31))
    run = workload.run.format(checks=workload.checks if checks is None else checks)
    return (f"# {workload.name}, input {index}\n\n"
            f"[surface]\n{workload.surface}\n\n"
            f"[caps]\n" + "\n".join(cap_lines) + "\n\n"
            f"[target]\n{target}\n\n"
            f"[run]\n{run}\n")


def input_order(workload: Workload, seed: int) -> list:
    """The pool inputs in the order a run with this seed visits them."""
    order = list(range(POOL_SIZE))
    random.Random(f"{workload.name}/seed/{seed}").shuffle(order)
    return order

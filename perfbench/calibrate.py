"""Fixed probes of how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by tens
of percent over minutes. Every timed run is bracketed by a probe, and
times are reported rescaled to the speed the probe nominally sees:

    reported = measured * sqrt(NOMINAL_S[kind] / probe_s)

A probe mirrors the kind of work its workload spends its time on:

- "cached": a Python loop over small arrays (vectorised complex sine,
  exp and log on 2048 points, 1600 inner products of 512-point vectors)
  and a dense least-squares solve, like the sphere's Gram assembly;
- "streaming": the same once, then theta-style sums of complex sines
  over arrays larger than the cache, like the torus kernels.

The probes use none of the program's code, so no change to the program
can move them. They run in the benchmark's own process, between runs,
never beside one.
"""

from __future__ import annotations

import math
import time

import numpy as np


def _cached(rng: np.random.Generator) -> complex:
    v = rng.uniform(-0.5, 0.5, 2048) + 1j * rng.uniform(-0.3, 0.3, 2048)
    freq = (2 * np.arange(14) + 1) * np.pi
    amp = np.exp(-0.7 * np.arange(14) ** 2) + 0j
    acc = 0j
    for _ in range(6):
        acc += complex(np.sum(amp @ np.sin(freq[:, None] * v[None, :])))
        acc += complex(np.sum(np.log(np.abs(np.exp(1j * v) - 0.3) + 1.0)))
    vecs = [rng.standard_normal(512) + 1j * rng.standard_normal(512) for _ in range(40)]
    for a in vecs:
        for b in vecs:
            acc += complex(np.sum(a * np.conj(b)))
    A = rng.standard_normal((240, 120)) + 1j * rng.standard_normal((240, 120))
    y = rng.standard_normal(240) + 0j
    return acc + complex(np.linalg.lstsq(A, y, rcond=None)[0][0])


def _streaming(rng: np.random.Generator) -> complex:
    v = rng.uniform(-0.5, 0.5, 50_000) + 1j * rng.uniform(-0.3, 0.3, 50_000)
    freq = (2 * np.arange(12) + 1) * np.pi
    amp = np.exp(-0.7 * np.arange(12) ** 2) + 0j
    acc = 0j
    for _ in range(2):
        arg = freq[:, None] * v[None, :]
        t0 = amp @ np.sin(arg)
        t1 = amp @ (freq[:, None] * np.cos(arg))
        acc += complex(np.sum(t1 / t0 - (t0 / t1) ** 2))
    return acc


# the steps of each probe; about a tenth of one of its workload's runs
PROBES = {
    "cached": (_cached,) * 6,
    "streaming": (_cached, _streaming) * 3,
}
# median seconds of each probe over a 5-minute series on a 2-vCPU x86-64
# VM; constants, so rescaled figures stay in seconds and compare across runs
NOMINAL_S = {"cached": 0.20, "streaming": 0.75}


def probe(kind: str) -> float:
    """Seconds the probe ``kind`` takes now; its inputs are fixed."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    for step in PROBES[kind]:
        step(rng)
    return time.perf_counter() - t0


def host_scale(kind: str, probe_s: float) -> float:
    """Factor that takes times measured while the probe ``kind`` took
    ``probe_s`` to the nominal host speed.

    The square root: when the host slows, a probe's time grows about
    twice as much, in log terms, as a whole faberforms run's. Fitting
    log(run time) on log(probe time) over series of runs on a 2-vCPU VM
    gave slopes from 0.23 to 0.58, and the spread of 30-second medians
    was smallest, or close to it, at exponent 0.5 on every workload (see
    README.md). The exponent is fixed, like NOMINAL_S, so both commits
    of a comparison are rescaled alike.
    """
    return math.sqrt(NOMINAL_S[kind] / probe_s)

"""Experiment pipeline: solve the series, run the checks, write artifacts.

run_experiment drives one configured decomposition end to end and leaves
three files in the output directory: coefficients.csv with every solved
coefficient, residuals.csv with the truncation history, and report.json
with the check verdicts and timings. The CSVs are byte-deterministic for
a fixed config and seed; wall-clock timings live only in the JSON report.

Exit codes: 0 all requested checks passed, 1 at least one check failed,
3 a numerical self-check tripped (or the Gram matrix needed
regularization under strict mode). Code 2 is reserved for config errors
and is produced by the command-line wrapper, not here.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checks import CHECKS, CheckResult
from .config import ExperimentConfig
from .numerics import NumericalError
from .series import SeriesDecomposition, project_faber, uniform_errors
from .surface import SurfaceSpec


@dataclass(frozen=True)
class RunContext:
    """Everything a check function may consult."""

    surface: SurfaceSpec
    target: object
    target_family: str
    target_params: dict
    decomposition: SeriesDecomposition
    seed: int
    samples: int
    pole_orders: int
    l2_tolerance: float
    sup_tolerance: float
    sup_errors: tuple
    translation: complex
    invariance_order: int


def _num(x) -> float | None:
    x = float(x)
    return x if np.isfinite(x) else None


def _cnum(z) -> list | None:
    if z is None:
        return None
    z = complex(z)
    return [z.real, z.imag]


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _probe_ring(config: ExperimentConfig) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(config.probe_points) / config.probe_points
    return config.probe_center + config.probe_radius * np.exp(1j * theta)


def write_coefficients(path: str, dec: SeriesDecomposition) -> None:
    """All solved coefficients, one per row: tag,k,m,re,im.

    epsilon rows carry the cap index in k; c and d rows the cycle index;
    h rows cap index k and order m. The m column is empty where it does
    not apply."""
    lines = ["tag,k,m,re,im"]
    for k, value in enumerate(dec.epsilon):
        lines.append(f"epsilon,{k},,{_fmt(value.real)},{_fmt(value.imag)}")
    for i, value in enumerate(dec.c):
        lines.append(f"c,{i},,{_fmt(value.real)},{_fmt(value.imag)}")
    for i, value in enumerate(dec.d):
        lines.append(f"d,{i},,{_fmt(value.real)},{_fmt(value.imag)}")
    n = dec.h.shape[1] if dec.h.size else 0
    for m in range(1, dec.h.shape[0] + 1):
        for k in range(n):
            value = dec.h[m - 1, k]
            lines.append(f"h,{k},{m},{_fmt(value.real)},{_fmt(value.imag)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_residuals(path: str, rows) -> None:
    """Truncation history, one row per solved order: M,l2_residual,sup_error."""
    lines = ["M,l2_residual,sup_error"]
    for order, l2, sup in rows:
        lines.append(f"{order},{_fmt(l2)},{_fmt(sup)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _surface_summary(surface: SurfaceSpec) -> dict:
    return {
        "genus": surface.genus,
        "n_caps": surface.n_caps,
        "tau": _cnum(surface.tau) if surface.genus == 1 else None,
        "q": _cnum(surface.q),
        "w0": _cnum(surface.w0),
    }


def _check_entry(res: CheckResult) -> dict:
    return {
        "name": res.name,
        "passed": bool(res.passed),
        "value": _num(res.value),
        "threshold": _num(res.threshold),
        "detail": res.detail,
    }


def run_experiment(config: ExperimentConfig, out_dir: str | None = None,
                   seed: int | None = None, strict: bool | None = None):
    """Solve, check, and write artifacts. Returns (report, exit_code).

    seed and strict, when given, override the config's values; out_dir
    overrides the [output] directory and falls back to the current
    directory when neither is set. ValidationError escapes to the caller
    because it always names a config-level problem."""
    seed = config.seed if seed is None else int(seed)
    strict_flag = bool(config.strict if strict is None else strict)
    directory = out_dir if out_dir is not None else (config.out_dir or ".")
    os.makedirs(directory, exist_ok=True)

    timings = {}
    numerical_failures = []
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    dec = None
    try:
        dec = project_faber(config.target, config.surface, config.M,
                            condition_limit=config.condition_limit)
    except NumericalError as exc:
        numerical_failures.append(f"solve: {exc}")
    timings["solve_seconds"] = time.perf_counter() - t0

    if dec is not None and strict_flag and dec.regularized:
        numerical_failures.append(
            "strict mode: Gram matrix exceeded the condition limit and was regularized"
        )

    results = []
    residual_rows = []
    if dec is not None:
        # one read of the probe ring serves every checkpoint order
        sups = uniform_errors(config.target, config.surface, dec, _probe_ring(config),
                              [order for order, _l2 in dec.residual_history],
                              margin=config.uniform_margin)
        residual_rows = [(order, l2, sup)
                         for (order, l2), sup in zip(dec.residual_history, sups)]

        ctx = RunContext(
            surface=config.surface,
            target=config.target,
            target_family=config.target_family,
            target_params=config.target_params,
            decomposition=dec,
            seed=seed,
            samples=config.samples,
            pole_orders=config.pole_orders,
            l2_tolerance=config.l2_tolerance,
            sup_tolerance=config.sup_tolerance,
            sup_errors=tuple(sup for _order, _l2, sup in residual_rows),
            translation=config.translation,
            invariance_order=config.invariance_order,
        )
        for name in config.checks:
            fn = CHECKS[name][0]
            t0 = time.perf_counter()
            try:
                res = fn(ctx)
            except NumericalError as exc:
                res = CheckResult(name, False, float("nan"), float("nan"),
                                  f"numerical failure: {exc}")
                numerical_failures.append(f"{name}: {exc}")
            timings[f"check {name} seconds"] = time.perf_counter() - t0
            results.append(res)

    timings["total_seconds"] = time.perf_counter() - t_total

    if numerical_failures:
        exit_code = 3
    elif any(not res.passed for res in results):
        exit_code = 1
    else:
        exit_code = 0

    report = {
        "version": __version__,
        "surface": _surface_summary(config.surface),
        "target": {"family": config.target_family,
                   "label": getattr(config.target, "label", "")},
        "run": {
            "M": config.M,
            "seed": seed,
            "strict": strict_flag,
            "checks": list(config.checks),
            "l2_tolerance": config.l2_tolerance,
            "sup_tolerance": config.sup_tolerance,
        },
        "decomposition": None if dec is None else {
            "epsilon": [_cnum(v) for v in dec.epsilon],
            "c": [_cnum(v) for v in dec.c],
            "d": [_cnum(v) for v in dec.d],
            "M": dec.M,
            "residual_history": [[order, _num(l2)] for order, l2 in dec.residual_history],
            "gram_condition": _num(dec.gram_condition),
            "regularized": bool(dec.regularized),
            "consistency": _num(dec.consistency),
        },
        "checks": [_check_entry(res) for res in results],
        "numerical_failures": numerical_failures,
        "timings": timings,
        "passed": exit_code == 0,
        "exit_code": exit_code,
    }

    if dec is not None:
        write_coefficients(os.path.join(directory, "coefficients.csv"), dec)
        write_residuals(os.path.join(directory, "residuals.csv"), residual_rows)
    with open(os.path.join(directory, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return report, exit_code

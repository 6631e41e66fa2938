"""Correctness gate on the artifacts of one `faberforms run`.

Coefficients are compared with a tolerance, never byte for byte: BLAS
thread counts alone move the last digit. A breach is a reason string;
a run with any breach counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import os

# max |solved - construction| over all coefficients with a known value
COEF_TOL = 1e-9
# max |solved - reference| against the seed code's coefficients for the
# same input
REF_TOL = 1e-10

ARTIFACTS = ("coefficients.csv", "residuals.csv", "report.json", "bench.json")


def _key(tag, k, m) -> tuple:
    return (str(tag), int(k), "" if m in ("", None) else int(m))


def read_coefficients(path: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        return {_key(r["tag"], r["k"], r["m"]): complex(float(r["re"]), float(r["im"]))
                for r in csv.DictReader(fh)}


def read_reference(path: str) -> dict:
    """input index -> coefficients, from the rows input,tag,k,m,re,im."""
    out: dict = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            out.setdefault(int(r["input"]), {})[_key(r["tag"], r["k"], r["m"])] = complex(
                float(r["re"]), float(r["im"]))
    return out


def rows_to_coefficients(rows) -> dict:
    return {_key(tag, k, m): complex(re, im) for tag, k, m, re, im in rows}


def max_deviation(solved: dict, expected: dict) -> float:
    """Largest |solved - expected| over the expected keys; a key the run
    did not write counts as an infinite deviation."""
    worst = 0.0
    for key, value in expected.items():
        worst = max(worst, abs(solved[key] - value) if key in solved else math.inf)
    return worst


def check_margin_decades(report: dict) -> float:
    """min over the checks of log10(threshold / value); checks without a
    numeric threshold, and values of exactly 0, impose no bound."""
    margins = [math.log10(c["threshold"] / c["value"]) for c in report["checks"]
               if c.get("threshold") and c.get("value")]
    return min(margins) if margins else math.inf


def _measure(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "bench.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    solved = read_coefficients(os.path.join(out_dir, "coefficients.csv"))
    with open(os.path.join(out_dir, "residuals.csv"), encoding="utf-8", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    return dict(
        setup_s=bench["setup_s"],
        peak_rss_mb=bench.get("peak_rss_mb"),
        construction=rows_to_coefficients(bench["construction"]),
        report=report,
        coefficients=solved,
        l2_residual=float(last["l2_residual"]),
        sup_error=float(last["sup_error"]),
        check_margin_decades=check_margin_decades(report),
    )


def inspect_run(out_dir: str, exit_code: int, reference: dict | None) -> dict:
    """Measurements and breaches of the run whose artifacts are in out_dir."""
    breaches = [] if exit_code == 0 else [f"exit code {exit_code}"]
    missing = [a for a in ARTIFACTS if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        return {"breaches": breaches + ["missing " + ", ".join(missing)]}
    try:
        result = _measure(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"breaches": breaches + [f"unreadable artifacts: {exc!r}"]}
    result["breaches"] = breaches
    report, construction = result.pop("report"), result.pop("construction")
    if not construction:
        breaches.append("target records no construction coefficients")
    if not report.get("passed"):
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        breaches.append(f"report not passed (failed checks: {failed}, "
                        f"numerical failures: {report.get('numerical_failures')})")
    result["coef_err"] = max_deviation(result["coefficients"], construction)
    if not result["coef_err"] <= COEF_TOL:
        breaches.append(f"coef_err {result['coef_err']:.3e} > {COEF_TOL:g}")
    if reference is not None:
        result["ref_dev"] = max_deviation(result["coefficients"], reference)
        if not result["ref_dev"] <= REF_TOL:
            breaches.append(f"ref_dev {result['ref_dev']:.3e} > {REF_TOL:g}")
    return result

"""Self-tests of the benchmark code; none of them times the program.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout.
"""

from __future__ import annotations

import configparser
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, input_order, make_config  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fake_child(wall_s: float, **result) -> run.Child:
    result.setdefault("breaches", [])
    return run.Child("fake", "", 0, wall_s, 150.0, result)


GOOD_RESULT = dict(setup_s=0.3, coef_err=1e-15, ref_dev=0.0, l2_residual=1e-12,
                   sup_error=1e-13, check_margin_decades=5.0, coefficients={})


class GeneratorTest(unittest.TestCase):
    def test_same_input_gives_same_config(self):
        for workload in WORKLOADS.values():
            for index in range(POOL_SIZE):
                self.assertEqual(make_config(workload, index), make_config(workload, index))

    def test_inputs_differ_but_keep_their_shape(self):
        for workload in WORKLOADS.values():
            texts = [make_config(workload, index) for index in range(POOL_SIZE)]
            self.assertEqual(len(set(texts)), POOL_SIZE)
            shapes = set()
            for text in texts:
                parser = configparser.ConfigParser()
                parser.read_string(text)
                kinds = tuple(spec.split()[0] for spec in parser["caps"].values())
                shapes.add((kinds, tuple(parser["surface"].items()),
                            parser["target"]["family"], tuple(parser["run"].items())))
            self.assertEqual(len(shapes), 1, workload.name)

    def test_seed_fixes_the_input_order(self):
        for workload in WORKLOADS.values():
            order = input_order(workload, 7)
            self.assertEqual(order, input_order(workload, 7))
            self.assertEqual(sorted(order), list(range(POOL_SIZE)))
            self.assertNotEqual(order, input_order(workload, 8))

    def test_reference_covers_every_input(self):
        for name in WORKLOADS:
            self.assertEqual(sorted(run.load_reference(name)), list(range(POOL_SIZE)))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.reference = run.load_reference("sphere-multicap")[0]
        self.write(self.reference)
        rows = [[tag, k, m, v.real, v.imag] for (tag, k, m), v in self.reference.items()]
        with open(os.path.join(self.dir, "bench.json"), "w", encoding="utf-8") as fh:
            json.dump({"setup_s": 0.3, "construction": rows}, fh)
        with open(os.path.join(self.dir, "residuals.csv"), "w", encoding="utf-8") as fh:
            fh.write("M,l2_residual,sup_error\n40,6e-10,4e-16\n")
        with open(os.path.join(self.dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump({"passed": True, "numerical_failures": [], "checks": [
                {"name": "convergence", "passed": True, "value": 6e-10, "threshold": 1e-6},
                {"name": "other", "passed": True, "value": 0.0, "threshold": 1e-9},
            ]}, fh)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, coefficients: dict):
        with open(os.path.join(self.dir, "coefficients.csv"), "w", encoding="utf-8") as fh:
            fh.write("tag,k,m,re,im\n")
            for (tag, k, m), v in coefficients.items():
                fh.write(f"{tag},{k},{m},{v.real!r},{v.imag!r}\n")

    def perturbed(self, delta: float) -> dict:
        out = dict(self.reference)
        key = ("h", 0, 3)
        out[key] = out[key] + delta
        return out

    def test_clean_run_passes(self):
        result = gate.inspect_run(self.dir, 0, self.reference)
        self.assertEqual(result["breaches"], [])
        self.assertEqual(result["ref_dev"], 0.0)
        self.assertAlmostEqual(result["check_margin_decades"], 3.2218, places=3)

    def test_roundoff_is_tolerated(self):
        self.write(self.perturbed(2.2e-16))
        self.assertEqual(gate.inspect_run(self.dir, 0, self.reference)["breaches"], [])

    def test_perturbed_coefficient_trips_the_gate(self):
        self.write(self.perturbed(1e-6))
        breaches = gate.inspect_run(self.dir, 0, self.reference)["breaches"]
        self.assertTrue(any(b.startswith("coef_err") for b in breaches), breaches)
        self.assertTrue(any(b.startswith("ref_dev") for b in breaches), breaches)

    def test_missing_coefficient_trips_the_gate(self):
        short = dict(self.reference)
        del short[("h", 2, 40)]
        self.write(short)
        self.assertTrue(gate.inspect_run(self.dir, 0, self.reference)["breaches"])

    def test_exit_code_and_bad_artifacts_trip_the_gate(self):
        self.assertIn("exit code 1", gate.inspect_run(self.dir, 1, self.reference)["breaches"])
        with open(os.path.join(self.dir, "bench.json"), "w", encoding="utf-8") as fh:
            json.dump({}, fh)  # the config never parsed
        self.assertTrue(gate.inspect_run(self.dir, 2, self.reference)["breaches"])
        os.remove(os.path.join(self.dir, "residuals.csv"))
        self.assertTrue(gate.inspect_run(self.dir, 0, self.reference)["breaches"])


class MetricNamesTest(unittest.TestCase):
    def test_end_to_end_names_and_units_match(self):
        figures = run.end_to_end([fake_child(2.0, **GOOD_RESULT),
                                  fake_child(2.2, **GOOD_RESULT)], "cached", [0.5, 0.6])
        for entry in load_spec()["end_to_end"]:
            self.assertIn(entry["name"], figures)
            self.assertEqual(figures[entry["name"]][1], entry["unit"], entry["name"])

    def test_per_layer_names_and_units_match(self):
        names = tracer.span_names()
        figures = run.per_layer(names, [], fake_child(3.0), fake_child(3.5))
        for entry in load_spec()["per_layer"]:
            self.assertIn(entry["name"], figures)
            self.assertEqual(figures[entry["name"]][1], entry["unit"], entry["name"])
        self.assertEqual(figures["theta.log_derivative2.calls"][0], 0)
        self.assertAlmostEqual(figures["trace.overhead_s"][0], 0.5)

    def test_benchmark_json_follows_the_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(all(set(e) == {"name", "unit", "better", "bound"}
                            for e in spec["end_to_end"]))
        self.assertTrue(all(set(e) == {"name", "unit", "better"} for e in spec["per_layer"]))
        names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for entry in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(entry["name"], NAME)
            self.assertRegex(entry["unit"], UNIT)
            self.assertIn(entry["better"], ("lower", "higher"))
        bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(len(spec["per_layer"]), 128)
        self.assertIsInstance(spec["run_seconds"], int)


class RescaleTest(unittest.TestCase):
    def test_times_are_rescaled_by_the_median_probe(self):
        nominal = calibrate.NOMINAL_S["cached"]
        probes = [nominal * f for f in (1.5, 2.0, 2.5, 9.0)]
        figures = run.end_to_end([fake_child(2.0, **GOOD_RESULT),
                                  fake_child(4.0, **GOOD_RESULT),
                                  fake_child(3.0, **GOOD_RESULT)], "cached", probes)
        self.assertAlmostEqual(figures["wall_raw_s"][0], 3.0)
        self.assertAlmostEqual(figures["wall_s"][0], 3.0 / 1.5)
        self.assertAlmostEqual(figures["setup_raw_s"][0], 0.3)
        self.assertAlmostEqual(figures["setup_s"][0], 0.3 / 1.5)
        self.assertAlmostEqual(figures["probe_s"][0], nominal * 2.25)

    def test_every_workload_has_a_probe(self):
        self.assertEqual(set(calibrate.PROBES), set(calibrate.NOMINAL_S))
        for workload in WORKLOADS.values():
            self.assertIn(workload.probe, calibrate.PROBES)
        self.assertGreater(calibrate.probe("cached"), 0.0)


class TracerTest(unittest.TestCase):
    def test_self_time_and_recursion(self):
        names = ["a", "b"]
        # a [0, 10] -> b [1, 4] -> a [2, 3]
        spans = [[0, -1, 0.0, 10.0, 5], [1, 0, 1.0, 4.0, 0], [0, 1, 2.0, 3.0, 2]]
        summary = tracer.summarize(names, spans)
        self.assertEqual(summary["a"], {"calls": 2, "points": 7, "s": 10.0, "self_s": 8.0})
        self.assertEqual(summary["b"], {"calls": 1, "points": 0, "s": 3.0, "self_s": 2.0})
        self.assertEqual(tracer.time_within(names, spans, "b", "a"), 3.0)
        self.assertEqual(tracer.time_within(names, spans, "a", "b"), 0.0)

    def test_install_wraps_every_import_site(self):
        # in a fresh interpreter, so this process keeps the unwrapped program
        code = (
            "import sys, faberforms.cli as cli, faberforms as ff\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import tracer\n"
            "t = tracer.Tracer().install()\n"
            "assert t.names == tracer.span_names()\n"
            "from faberforms import targets, theta, checks, faber, schiffer, series, config\n"
            "assert targets.log_derivative2 is theta.log_derivative2\n"
            "assert checks.schiffer_contour is faber.schiffer_contour "
            "is schiffer.schiffer_contour\n"
            "assert series.period is ff.surface.period and config.parse_config is cli.parse_config\n"
            "n = len(t.spans)\n"
            "ff.schiffer_contour(ff.SurfaceSpec.sphere(ff.CapFamily([ff.AffineMap(1.0)])),"
            " 0, 2, [3.0, 4.0], n=64)\n"
            "spans = t.spans[n:]\n"
            "names = [t.names[s[0]] for s in spans]\n"
            "assert 'schiffer.schiffer_contour' in names and 'surface.schiffer_kernel' in names\n"
            "top = spans[names.index('schiffer.schiffer_contour')]\n"
            "assert top[4] == 2 * 64, top\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        done = subprocess.run([sys.executable, "-c", code, HERE], env=env,
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(done.returncode, 0, done.stderr)


class PercentileTest(unittest.TestCase):
    def test_ten_samples_above(self):
        self.assertIsNone(run.high_percentile(list(range(10))))
        p, value = run.high_percentile(list(range(20)))
        self.assertEqual((p, value), (50, 9))
        p, value = run.high_percentile(list(range(100)))
        self.assertEqual((p, value), (90, 89))
        self.assertEqual(sum(1 for v in range(100) if v > value), 10)


if __name__ == "__main__":
    unittest.main()

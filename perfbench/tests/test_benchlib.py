"""Unit tests for the benchmark's own code (benchlib.py, run.py's output).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402


def raw_run(**overrides):
    """A minimal raw result of perfbench_bin, as run.py receives it."""
    raw = {
        "workload": "attest_poll",
        "seed": 1,
        "min_steps": 100,
        "fingerprint": {"nproc": "4", "cpu_model": "x", "force_scalar": "0"},
        "setup_s": [1.0, 3.0, 2.0],
        "step_ms": [float(i) for i in range(1, 101)],
        "step_probe_ms": [2.0] * 100,
        "setup_probe_ms": [2.0] * 3,
        "timed_s": 10.0,
        "attempted": 1000,
        "completed": 1000,
        "prefix_units": 1000,
        "sim_latency_ms": [5.0] * 100,
        "peak_rss_mb": 32.0,
        "digests": {"fleet.final": "ab"},
        "oracle_digests": {"fleet.final": "ab"},
        "checks": {"verdict_failures": 0},
        "layers": {},
        "obs": {},
        "obs_digest": "",
    }
    raw.update(overrides)
    return raw


class PercentileRule(unittest.TestCase):
    def test_p90_of_100_samples_has_ten_beyond(self):
        self.assertEqual(benchlib.samples_beyond(100, 0.9), 10)
        self.assertAlmostEqual(
            benchlib.tail_percentile([float(i) for i in range(100)], 0.9), 89.1)

    def test_p90_refused_below_ten_beyond(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([1.0] * 90, 0.9)

    def test_median_interpolates(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 0.5), 2.5)


class Normalisation(unittest.TestCase):
    def test_work_per_s_counts_units_not_steps(self):
        # 100 steps of 20 ms: 2 s of host time.
        e2e = benchlib.end_to_end(raw_run(completed=5000, attempted=5000,
                                          step_ms=[20.0] * 100))
        self.assertAlmostEqual(e2e["work_per_s"], 2500.0)

    def test_reference_speed_leaves_times_alone(self):
        self.assertEqual(benchlib.host_scale([2.0, 2.0]), [1.0, 1.0])

    def test_slow_host_scales_times_down(self):
        # The probe twice as slow: the host ran at half the reference speed.
        raw = raw_run(step_probe_ms=[4.0] * 100)
        self.assertAlmostEqual(benchlib.end_to_end(raw)["step_ms_p50"], 25.25)
        self.assertAlmostEqual(benchlib.end_to_end(raw, scale=False)["step_ms_p50"],
                               50.5)

    def test_scale_follows_the_host_within_a_run(self):
        factors = benchlib.host_scale([2.0] * 10 + [4.0] * 10)
        self.assertEqual(factors[0], 1.0)
        self.assertEqual(factors[-1], 0.5)

    def test_per_unit(self):
        self.assertEqual(benchlib.per_unit(30.0, 10), 3.0)
        self.assertEqual(benchlib.per_unit(30.0, 0), 0.0)

    def test_setup_is_median_of_setups(self):
        self.assertEqual(benchlib.end_to_end(raw_run())["setup_s"], 2.0)

    def test_fail_frac(self):
        e2e = benchlib.end_to_end(raw_run(attempted=1000, completed=990))
        self.assertAlmostEqual(e2e["fail_frac"], 0.01)

    def test_trace_overhead(self):
        plain = raw_run(completed=1000)
        traced = raw_run(completed=900, attempted=900)
        layers = benchlib.per_layer(traced, plain, ["trace.overhead", "shard.speedup"])
        self.assertAlmostEqual(layers["trace.overhead"], 0.1)
        self.assertEqual(layers["shard.speedup"], 0.0)  # layer not used


class FingerprintComparison(unittest.TestCase):
    BASE = {"nproc": "4", "cpu_model": "x", "force_scalar": "0"}

    def test_same_host_is_judged(self):
        self.assertEqual(benchlib.compare([10, 10, 10], [10.5, 10.5, 10.5], 0.1,
                                          "lower", self.BASE, dict(self.BASE)),
                         "pass")

    def test_other_host_is_never_pass_or_fail(self):
        other = dict(self.BASE, cpu_model="y")
        for new in ([10], [100]):
            self.assertEqual(
                benchlib.compare([10], new, 0.1, "lower", self.BASE, other),
                "not comparable on this host")

    def test_ignored_field_keeps_runs_comparable(self):
        scalar = dict(self.BASE, force_scalar="1")
        self.assertEqual(benchlib.compare([10, 11], [20, 21], 0.1, "lower",
                                          self.BASE, scalar,
                                          ignore=benchlib.ENV_FINGERPRINT["BOLTED_FORCE_SCALAR"]),
                         "fail")

    def test_overlapping_regression_is_unresolved(self):
        self.assertEqual(benchlib.compare([10, 10, 14], [13, 13, 9], 0.1, "lower",
                                          self.BASE, self.BASE), "unresolved")

    def test_higher_is_better(self):
        self.assertEqual(benchlib.compare([100, 101], [50, 51], 0.1, "higher",
                                          self.BASE, self.BASE), "fail")


class ResultShape(unittest.TestCase):
    def test_keys_and_units(self):
        line = benchlib.result_line(True, 10, 0, {"setup_s": 1.5}, {"setup_s": "s"})
        data = json.loads(line)
        self.assertEqual(set(data), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(data["metrics"]["setup_s"], {"value": 1.5, "unit": "s"})

    def test_rejects_bad_counts_and_values(self):
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 0, 0, {}, {})
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 10, 11, {}, {})
        with self.assertRaises(ValueError):
            benchlib.result_line(True, 10, 0, {"x": float("nan")}, {"x": "s"})

    def test_spec_metrics_all_produced(self):
        spec = benchlib.load_spec()
        e2e = benchlib.end_to_end(raw_run())
        for metric in spec["end_to_end"]:
            self.assertIn(metric["name"], e2e)
            self.assertNotEqual(metric["name"], benchlib.FAIL_FRAC[0])
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(set(benchlib.per_layer(raw_run(), raw_run(), names)),
                         set(names))


class CorrectnessGate(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(benchlib.violations(raw_run()), [])

    def test_digest_mismatch_fails(self):
        found = benchlib.violations(raw_run(digests={"fleet.final": "cd"}))
        self.assertEqual(len(found), 1)
        self.assertIn("fleet.final", found[0])

    def test_missing_digest_fails(self):
        self.assertTrue(benchlib.violations(raw_run(digests={})))

    def test_wrong_verdict_fails(self):
        found = benchlib.violations(raw_run(checks={"verdict_failures": 3},
                                            completed=997))
        self.assertEqual(len(found), 2)

    def test_check_counter_fails(self):
        self.assertTrue(benchlib.violations(raw_run(checks={"cross_enclave_frames": 1})))


if __name__ == "__main__":
    unittest.main()

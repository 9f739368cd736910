"""Fast self-tests of the benchmark's own code; no scenario is run.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from magsat import presets  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SpanSelfTime(unittest.TestCase):
    def test_overlapping_children_are_subtracted_once(self):
        spans = [
            ["root", 0.0, 10.0, -1, -1],
            ["a", 1.0, 3.0, 0, 0],
            ["b", 2.0, 5.0, 0, 0],
            ["c", 7.0, 8.0, 0, 1],
            ["a.x", 1.5, 2.5, 1, 0],  # grandchild: only `a` loses it
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 1.0, 3.0, 1.0, 1.0])

    def test_child_outside_its_parent_is_clipped(self):
        spans = [["p", 0.0, 2.0, -1, -1], ["k", 1.0, 3.0, 0, -1]]
        self.assertEqual(tracing.self_times(spans), [1.0, 2.0])

    def test_tracer_nests_calls_and_tags_steps(self):
        ticks = iter(range(100))
        tr = tracing.Tracer(clock=lambda: float(next(ticks)))
        root = tr.begin("loop")          # t=0
        tr.step = 4
        tr.call("solve", lambda: tr.call("field", lambda: None))  # 1, 2, 3, 4
        tr.end(root)                     # t=5
        self.assertEqual(tr.spans, [
            ["loop", 0.0, 5.0, -1, -1],
            ["solve", 1.0, 4.0, 0, 4],
            ["field", 2.0, 3.0, 1, 4],
        ])
        table = tracing.layer_table(tr.spans)
        self.assertEqual(table["loop"], {"calls": 1, "total_s": 5.0, "self_s": 2.0})
        self.assertEqual(table["solve"]["self_s"], 2.0)

    def test_span_cost_is_small_and_positive(self):
        self.assertTrue(0.0 < tracing.span_cost_s(calls=2000) < 1e-4)


class Percentile(unittest.TestCase):
    def test_nearest_rank_returns_an_observed_value(self):
        ten = [10, 3, 7, 1, 9, 2, 8, 4, 6, 5]
        self.assertEqual(tracing.percentile(ten, 50), 5)
        self.assertEqual(tracing.percentile(ten, 70), 7)  # 0.7 * 10 is not exact in floats
        self.assertEqual(tracing.percentile(ten, 90), 9)
        self.assertEqual(tracing.percentile(ten, 100), 10)
        self.assertEqual(tracing.percentile(list(range(1, 101)), 90), 90)
        self.assertEqual(tracing.percentile([7.5], 90), 7.5)

    def test_rejects_empty_sample_and_bad_rank(self):
        with self.assertRaises(ValueError):
            tracing.percentile([], 50)
        with self.assertRaises(ValueError):
            tracing.percentile([1.0], 0)


class Workloads(unittest.TestCase):
    PRESET = {"detumble": "detumble-paper", "slew": "attitude-paper", "fine-plant": "detumble-paper"}

    def test_default_seed_reproduces_each_preset(self):
        for name, preset in self.PRESET.items():
            self.assertEqual(workloads.batch(name, 0)[0]["x0"], presets.get_scenario_preset(preset)["x0"])

    def test_batches_of_different_seeds_share_no_config(self):
        for name in self.PRESET:
            first, second = workloads.batch(name, 0), workloads.batch(name, 1)
            self.assertEqual(len(first), workloads.VARIANTS)
            x0s = [json.dumps(doc["x0"]) for doc in first + second]
            self.assertEqual(len(set(x0s)), 2 * workloads.VARIANTS)

    def test_seed_varies_only_the_documented_input(self):
        for name, preset in self.PRESET.items():
            base = presets.get_scenario_preset(preset)
            doc = workloads.generate(name, 7)
            self.assertEqual(doc, workloads.generate(name, 7))
            self.assertNotEqual(doc["x0"], base["x0"])
            self.assertEqual(doc["mpc"]["q_diag"], base["mpc"]["q_diag"])
            if name == "slew":
                offset = math.sqrt(sum(v * v for v in doc["x0"]["q"][:3]))
                self.assertAlmostEqual(offset, workloads.SLEW_OFFSET, places=12)
                self.assertEqual(doc["x0"]["q"][3], 1.0)
            else:
                w0, w = base["x0"]["omega_deg"], doc["x0"]["omega_deg"]
                n0 = math.sqrt(sum(v * v for v in w0))
                self.assertAlmostEqual(math.sqrt(sum(v * v for v in w)), n0, places=12)
                cos = sum(a * b for a, b in zip(w0, w)) / (n0 * n0)
                self.assertLessEqual(math.degrees(math.acos(min(cos, 1.0))), workloads.RATE_TILT_DEG + 1e-9)

    def test_benchmark_json_names_the_generated_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]}, workloads.WHY)


class CsvRows:
    """A small config and helpers that write CSV rows in magsat's format."""

    DOC = {
        "duration": 4.0, "pwm": True,
        "mpc": {"ts": 2.0, "u_max": 3.0, "q_diag": [0, 0, 0, 0, 1, 2, 0],
                "x_ref": {"q": [0, 0, 0, 1], "omega": [0, 0, 0]}},
    }

    @staticmethod
    def _csv(rows):
        return "\n".join([",".join(run.CSV_COLUMNS)] + [",".join(map(str, r)) for r in rows]) + "\n"

    def _row(self, t, m_applied, m_raw, degraded=0):
        return [t, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.0, *m_applied, *m_raw, 1e-5, 2e-5, 3e-5, 0.5, degraded]


class CsvChecks(CsvRows, unittest.TestCase):
    def test_good_run_passes_and_scores(self):
        rows = [self._row(0.0, [3.0, -2.0, 0.0], [3.0, -2.5, 0.0], 1),
                self._row(2.0, [1.0, -1.0, -3.0], [0.5, -1.0, -3.0])]
        problems, quality = run.check_csv(self._csv(rows), self.DOC)
        self.assertEqual(problems, [])
        self.assertEqual(quality, {"rows": 2, "degraded_share": 0.5, "track_cost": 9.0})

    def test_each_defect_is_reported(self):
        rows = [self._row(0.0, [2.5, 0.0, 0.0], [3.1, 0.0, 0.0]),
                self._row(2.0, [0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0]),
                self._row(4.0, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])]
        problems, _ = run.check_csv(self._csv(rows), self.DOC)
        self.assertEqual(problems, [
            "3 rows, expected round(duration/Ts) = 2",
            "row 0: |m_raw| exceeds u_max",
            "row 0: applied dipole off the 7-level grid",
            "row 1: non-finite value",
        ])


class ReferenceSpeed(unittest.TestCase):
    def test_host_time_scales_with_the_probe(self):
        slow = [2.0 * worker.REFERENCE_PROBE_S, 2.0 * worker.REFERENCE_PROBE_S]
        self.assertAlmostEqual(worker.at_reference_speed(3.0, slow), 1.5)

    def test_probe_timer_samples_and_restores_the_alarm(self):
        with worker.ProbeTimer() as probes:
            end = time.perf_counter() + 2.5 * worker.PROBE_PERIOD_S
            while time.perf_counter() < end:
                pass
        self.assertGreaterEqual(len(probes.times), 2)
        self.assertEqual(worker.signal.getitimer(worker.signal.ITIMER_REAL), (0.0, 0.0))


class EndToEndPooling(CsvRows, unittest.TestCase):
    """end_to_end with a stub worker: configs cycle, then times and quality pool per config."""

    def test_pools_each_config_once(self):
        docs = [self.DOC, dict(self.DOC, duration=6.0)]
        csvs = [self._csv([self._row(0.0, [0.0] * 3, [0.0] * 3, 1), self._row(2.0, [0.0] * 3, [0.0] * 3)]),
                self._csv([self._row(2.0 * k, [0.0] * 3, [0.0] * 3) for k in range(3)])]
        run_s = iter([1.0, 4.0, 3.0, 2.0])  # config 0 runs twice: 1 s and 3 s

        def stub(mode, cfg, *args, deadline):
            if mode == "setup":
                return {"setup_s": 0.5, "host_setup_s": 0.0}
            Path(args[0]).write_text(csvs[cfg])
            return {"error": None, "run_s": next(run_s), "host_run_s": 0.0, "setup_s": 0.25,
                    "host_setup_s": 0.0, "maxrss_kb": 2048}

        real, run._worker = run._worker, stub
        try:
            with tempfile.TemporaryDirectory() as tmp:
                metrics, attempted, failed, problems, _ = run.end_to_end(
                    docs, [0, 1], Path(tmp), seconds=0.0, deadline=0.0)
        finally:
            run._worker = real
        self.assertEqual((attempted, failed, problems), (3, 0, []))
        self.assertEqual(metrics["sim_s_per_s"], (4.0 + 6.0) / (2.0 + 4.0))
        self.assertEqual(metrics["setup_s"], 0.5)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        self.assertEqual(metrics["degraded_share"], (0.5 + 0.0) / 2)


if __name__ == "__main__":
    unittest.main()

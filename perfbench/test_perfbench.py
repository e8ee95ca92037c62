"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'     # from the repo root

The checker tests use hand-computed inputs. The smoke tests build the
benchmark (once, under .bench_build/) and run every workload at its
seconds-long smoke size, untimed and traced.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


class JainIndex(unittest.TestCase):
    def test_known_vectors(self):
        self.assertEqual(checks.jain_index([5, 5, 5, 5]), 1.0)
        self.assertEqual(checks.jain_index([1, 0, 0, 0]), 0.25)
        self.assertEqual(checks.jain_index([2, 2, 0, 0]), 0.5)
        self.assertAlmostEqual(checks.jain_index([1, 2, 3]), 36 / 42, places=15)

    def test_empty_vector_is_an_error(self):
        with self.assertRaises(ValueError):
            checks.jain_index([])


class PoissonBound(unittest.TestCase):
    def test_bounds(self):
        self.assertEqual(checks.poisson_bound(100.0), (50.0, 150.0))
        self.assertEqual(checks.poisson_bound(4.0, z=2.0), (0.0, 8.0))
        self.assertEqual(checks.poisson_bound(1.0, z=3.0), (0.0, 4.0))


class SizeLaws(unittest.TestCase):
    def test_floored_bounded_pareto(self):
        # alpha 1 on [1, 4]: F(x) = (4/3)(1 - 1/x), so P(1) = 2/3,
        # P(2) = 2/9, P(3) = 1/9: mean 13/9, E[K^2] = 23/9, var 38/81.
        mean, var = checks.size_moments(
            {"size": "pareto", "alpha": 1.0, "min": 1, "max": 4})
        self.assertAlmostEqual(mean, 13 / 9, places=12)
        self.assertAlmostEqual(var, 38 / 81, places=12)

    def test_floored_lognormal(self):
        # mu 0, sigma 1 clamped to [1, 2]: K = 1 iff X < 2, P = Phi(ln 2).
        p1 = 0.5 * (1 + math.erf(math.log(2) / math.sqrt(2)))
        self.assertAlmostEqual(p1, 0.755891, places=6)
        mean, var = checks.size_moments(
            {"size": "lognormal", "mu": 0.0, "sigma": 1.0, "min": 1, "max": 2})
        self.assertAlmostEqual(mean, 1 + (1 - p1), places=12)
        self.assertAlmostEqual(var, p1 * (1 - p1), places=12)

    def test_offered_load(self):
        op = {"arrivals_per_s": 1000.0, "rate_bps": 1e8,
              "classes": [{"weight": 1.0, "size": "pareto", "alpha": 1.0,
                           "min": 1, "max": 4}]}
        self.assertAlmostEqual(checks.offered_load(op), 1000 * 13 / 9 * 12000 / 1e8)


def fixed_flow_op():
    # Two groups on a 10 Mb/s link for 2 s; flows are
    # [group, goodput, drops, delivered segments].
    flows = [[0, 3e6, 2, 500], [0, 1e6, 1, 170], [1, 4e6, 0, 680]]
    g0 = [3e6, 1e6]
    return {
        "name": "hand", "rate_bps": 1e7, "measured_s": 2.0, "aggregate_bps": 8e6,
        "queue_dequeued": 1600, "queue_drops": 3, "flows": flows,
        "groups": [{"count": 2, "rtt_s": 0.02, "share": 0.5,
                    "jfi": sum(g0) ** 2 / (2 * sum(x * x for x in g0))},
                   {"count": 1, "rtt_s": 0.08, "share": 0.5, "jfi": 1.0}],
    }


class FixedFlowChecks(unittest.TestCase):
    def test_consistent_output_passes(self):
        self.assertEqual(checks.check_fixed_flows(fixed_flow_op()), [])

    def test_each_violation_is_reported(self):
        cases = {
            "aggregate_bps": lambda op: op.update(aggregate_bps=9e6),
            "queue_drops": lambda op: op.update(queue_drops=4),
            "queue_dequeued": lambda op: op.update(queue_dequeued=1700),
            "jfi": lambda op: op["groups"][0].update(jfi=0.9),
            "share": lambda op: op["groups"][1].update(share=0.6),
            "delivered": lambda op: op["flows"][2].__setitem__(3, 1500),
        }
        for name, mutate in cases.items():
            op = fixed_flow_op()
            mutate(op)
            self.assertTrue(checks.check_fixed_flows(op), name)


def workload_op():
    cls = {"name": "web", "weight": 1.0, "rtt_s": 0.02, "size": "pareto",
           "alpha": 1.0, "min": 1, "max": 4}
    # 1000 arrivals/s for 10 s; 13/9 segments per flow on average.
    res = {"name": "web", "arrivals": 10001, "rejected": 0, "completed": 9990,
           "abandoned": 11, "completed_segments": round(9990 * 13 / 9),
           "p50_fct_s": 0.03, "p90_fct_s": 0.05, "p99_fct_s": 0.1, "p999_fct_s": 0.2}
    return {"name": "hand", "rate_bps": 1e9, "horizon_s": 10.0, "arrivals_per_s": 1000.0,
            "classes": [cls], "workload_classes": [res], "workload_goodput_bps": 1e8}


class WorkloadChecks(unittest.TestCase):
    def test_consistent_output_passes(self):
        self.assertEqual(checks.check_workload(workload_op()), [])

    def test_each_violation_is_reported(self):
        cases = {
            "arrivals": lambda r: r.update(arrivals=12000, completed=11989),
            "accounting": lambda r: r.update(abandoned=12),
            "monotone": lambda r: r.update(p90_fct_s=0.01),
            "rtt": lambda r: r.update(p50_fct_s=0.01, p90_fct_s=0.01),
            "sizes": lambda r: r.update(completed_segments=9990 * 2),
        }
        for name, mutate in cases.items():
            op = workload_op()
            mutate(op["workload_classes"][0])
            self.assertTrue(checks.check_workload(op), name)
        op = workload_op()
        op["workload_goodput_bps"] = 1e9
        self.assertTrue(checks.check_workload(op))


class GprofLayers(unittest.TestCase):
    FLAT = """Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 22.59      0.61     0.61  2492634     0.00     0.00  ccas::TcpSender::process_ack(ccas::Packet const&)
  7.22      0.81     0.20 17150705     0.00     0.00  ccas::EventQueue::place(ccas::Event&&)
  0.37      0.82     0.01                             ccas::CongestionController::owns_recovery_cwnd() const
"""

    def test_flat_profile_rows(self):
        rows = layers.parse_flat_profile(self.FLAT)
        self.assertEqual(rows, [
            ("ccas::TcpSender::process_ack(ccas::Packet const&)", 0.61, 2492634),
            ("ccas::EventQueue::place(ccas::Event&&)", 0.20, 17150705),
            ("ccas::CongestionController::owns_recovery_cwnd() const", 0.01, None)])

    def test_layer_attribution(self):
        files = {"ccas::TcpSender::process_ack(ccas::Packet const&)": "/r/src/tcp/tcp_sender.cc",
                 "ccas::NetemDelay::on_event(unsigned int)": "/r/src/../src/net/delay_line.h",
                 "std::vector<int>::push_back(int)": "/usr/include/c++/12/bits/stl_vector.h"}
        m = layers.LayerMap(files, "/r")
        self.assertEqual(m.layer("ccas::TcpSender::process_ack(ccas::Packet const&)"), "tcp")
        self.assertEqual(m.layer("ccas::NetemDelay::on_event(unsigned int)"), "net")
        self.assertEqual(m.layer("std::_Function_handler<void (), ccas::TcpSender::"
                                 "TcpSender()::{lambda()#1}>::_M_invoke()"), "tcp")
        self.assertIsNone(m.layer("std::vector<int>::push_back(int)"))
        self.assertEqual(layers.calls_of({"f(int)": 2, "f(int) [clone .cold]": 3,
                                          "g()": 5}, "f("), 5)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_the_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(out.returncode, 0, out.stderr)
        lines = out.stdout.strip().splitlines()
        self.assertTrue(lines[-2].startswith("# meta "))
        return json.loads(lines[-1])

    def test_every_workload_untimed_and_traced(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]), set(names))


if __name__ == "__main__":
    unittest.main()

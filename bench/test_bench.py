"""Tests of the benchmark itself (not of phenkf).

    python3 -m unittest discover -s bench -p "test_*.py"

They need no install: the repository's src/ is put on the path here.
"""

import contextlib
import io
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibrate  # noqa: E402
import phenkf  # noqa: E402
import phenkf.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Command, Record  # noqa: E402


def _bindings():
    """Every module-level binding in phenkf, plus the traced method."""
    out = {}
    for name, module in sys.modules.items():
        if name == "phenkf" or name.startswith("phenkf."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    out[("ReductionTrace", "replay")] = phenkf.resistance_engine.ReductionTrace.__dict__["replay"]
    return out


def _traced_pass(argvs):
    t = Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes = [phenkf.cli.main(list(argv)) for argv in argvs]
    finally:
        t.uninstall()
    return codes, t.take_spans(), out.getvalue()


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            Span("cli.main", 0.0, 10.0, None, {}),
            Span("extremal_search.kf_of_code", 1.0, 4.0, 0, {}),
            Span("chain_model.build_chain", 2.0, 3.0, 1, {}),
            Span("exact_arith.format_rational", 3.5, 6.0, 0, {}),  # overlaps its sibling
            Span("exact_arith.format_rational", 8.0, 9.0, 0, {}),
        ]
        self.assertEqual(self_times(spans), [10.0 - 6.0, 2.0, 1.0, 2.5, 1.0])
        m = layer_metrics(spans, stdout_bytes=7)
        self.assertEqual(m["exact_arith.format_rational.calls"], 2)
        self.assertEqual(m["exact_arith.format_rational.s"], 3.5)
        self.assertEqual(m["exact_arith.self_s"], 3.5)
        self.assertEqual(m["cli.self_s"], 4.0)
        self.assertEqual(m["extremal_search.kf_of_code.self_s"], 2.0)
        self.assertEqual(m["cli.stdout_bytes"], 7)
        self.assertEqual(m["st_isomer.verify_lemma4.calls"], 0)

    def test_solve_counters_count_outermost_solves(self):
        spans = [
            Span("extremal_search.find_extrema", 0.0, 9.0, None, {"codes": 2}),
            Span("resistance_engine.kirchhoff_index", 1.0, 2.0, 0, {"order": 4, "bits": 7}),
            Span("resistance_engine.kirchhoff_index", 3.0, 4.0, 0, {"order": 5, "bits": 9}),
            Span("resistance_engine.resistance_sum", 5.0, 8.0, None, {"order": 3, "bits": 12}),
            Span("resistance_engine.grounded_resistances", 6.0, 7.0, 3, {"order": 3, "bits": 11}),
        ]
        m = layer_metrics(spans, stdout_bytes=0)
        self.assertEqual(m["resistance_engine.solve.calls"], 3)
        self.assertEqual(m["resistance_engine.solve.s"], 5.0)
        self.assertEqual(m["resistance_engine.solve.work_v3"], 4 ** 3 + 5 ** 3 + 3 ** 3)
        self.assertEqual(m["resistance_engine.solve.order_max"], 5)
        self.assertEqual(m["resistance_engine.solve.result_bits_max"], 12)
        self.assertEqual(m["extremal_search.find_extrema.codes"], 2)
        self.assertEqual(m["extremal_search.solves_per_code"], 1.0)


class PatchingTest(unittest.TestCase):
    ARGVS = (("kf", "--code", "02", "--sums"), ("verify", "lemma5", "--n", "2", "--samples", "1"))

    def test_patching_is_undone_after_a_traced_run(self):
        before = _bindings()
        t = Tracer()
        t.install()
        try:
            kf = phenkf.resistance_engine.kirchhoff_index
            self.assertIsNot(kf, before[("phenkf.resistance_engine", "kirchhoff_index")])
            self.assertIs(phenkf.extremal_search.kirchhoff_index, kf)
            self.assertIs(phenkf.kirchhoff_index, kf)
            with self.assertRaises(RuntimeError):
                t.install()
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(phenkf.cli.main(list(self.ARGVS[0])), 0)
            self.assertTrue(t.spans)
        finally:
            t.uninstall()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_spans_nest_under_their_callers(self):
        codes, spans, _ = _traced_pass(self.ARGVS)
        self.assertEqual(codes, [0, 0])
        names = [s.name for s in spans]
        self.assertEqual(names.count("cli.main"), 2)
        kf = spans[names.index("resistance_engine.kirchhoff_index")]
        parent = spans[kf.parent]
        self.assertEqual(parent.name, "extremal_search.kf_of_code")
        self.assertEqual(spans[parent.parent].name, "cli.main")
        self.assertEqual(kf.attrs["order"], 24)  # 6 vertices per hexagon
        self.assertIn("resistance_engine.ReductionTrace.replay", names)

    def test_computed_counters_repeat_exactly(self):
        first = layer_metrics(_traced_pass(self.ARGVS)[1], 0)
        second = layer_metrics(_traced_pass(self.ARGVS)[1], 0)
        for name in ("resistance_engine.solve.work_v3", "resistance_engine.solve.order_max",
                     "resistance_engine.solve.result_bits_max", "resistance_engine.reduce.steps",
                     "chain_model.build_chain.calls", "exact_arith.format_rational.calls"):
            self.assertEqual(first[name], second[name], name)
        self.assertGreater(first["resistance_engine.solve.work_v3"], 0)


class DigestGateTest(unittest.TestCase):
    LEMMA4 = Command(("verify", "lemma4", "--seed", "1729"), "lemma4_s", 0)

    def test_recorded_output_passes_and_altered_output_is_flagged(self):
        digests = workloads.load_digests()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = phenkf.cli.main(list(self.LEMMA4.argv))
        good = Record(self.LEMMA4, rc, out.getvalue(), 0.0)
        self.assertEqual(workloads.digest_problems(good, digests), [])
        altered = Record(self.LEMMA4, rc, good.stdout.replace("failures: 0", "failures: 00"), 0.0)
        self.assertEqual(len(workloads.digest_problems(altered, digests)), 1)
        wrong_rc = Record(self.LEMMA4, 1, good.stdout, 0.0)
        self.assertEqual(len(workloads.digest_problems(wrong_rc, digests)), 2)

    def test_workload_check_flags_every_command_of_the_pass(self):
        commands = workloads.WORKLOADS["long-chain"].commands(7)
        text = "code: n=30 w={}\nkf: {}\nvertices: 180\nedges: 238\n"
        kfs = ("10", "30", "20")
        records = [Record(c, 0, text.format(c.argv[2], kf), 0.0) for c, kf in zip(commands, kfs)]
        self.assertEqual(workloads.problems(workloads.WORKLOADS["long-chain"], records, {}),
                         [[], [], []])
        records[2] = Record(commands[2], 0, text.format(commands[2].argv[2], "31"), 0.0)
        found = workloads.problems(workloads.WORKLOADS["long-chain"], records, {})
        self.assertTrue(all(found))

    def test_seed_picks_the_random_inputs(self):
        build = workloads.WORKLOADS["long-chain"].commands
        self.assertEqual(build(3), build(3))
        self.assertNotEqual(build(3)[2], build(4)[2])
        self.assertEqual(build(3)[:2], build(4)[:2])


class CalibrationTest(unittest.TestCase):
    def test_sampler_times_the_kernel_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        with calibrate.Sampler() as sampler:
            deadline = time.perf_counter() + 3 * calibrate.INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(sampler.samples), 2)
        self.assertTrue(all(k > 0 for k in sampler.samples))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_scale_is_relative_to_the_reference_speed(self):
        self.assertEqual(calibrate.scale(3.0, calibrate.REFERENCE_S), 3.0)
        self.assertEqual(calibrate.scale(3.0, 2 * calibrate.REFERENCE_S), 1.5)

    def test_layer_times_are_scaled_and_counts_are_not(self):
        spans = [Span("resistance_engine.kirchhoff_index", 0.0, 2.0, None, {"order": 3, "bits": 4})]
        m = layer_metrics(spans, 10, time_scale=0.5)
        self.assertEqual(m["resistance_engine.kirchhoff_index.s"], 1.0)
        self.assertEqual(m["resistance_engine.solve.work_v3"], 27)
        self.assertEqual(m["cli.stdout_bytes"], 10)


class ResultsFileTest(unittest.TestCase):
    def test_results_file_round_trips(self):
        doc = {
            "workload": "long-chain", "seed": 5, "seconds": 1.0, "trace": 0,
            "setup_s": [[0.04, 0.002], [0.09, 0.004], [0.07, 0.004]], "peak_rss_mb": 24.5,
            "passes": [{"traced": False, "wall_s": 2.5, "raw_wall_s": 5.0, "commands": [{
                "argv": ["kf", "--code", "0"], "label": "kf_s", "codes": 1, "rc": 0,
                "seconds": 2.5, "raw_seconds": 5.0, "kernel_s": 0.008, "stdout_bytes": 10,
                "sha256": "0" * 64, "problems": []}]}],
        }
        spec = {"end_to_end": [{"name": "wall_s", "unit": "s"}, {"name": "setup_s", "unit": "s"},
                               {"name": "codes_per_s", "unit": "1/s"}]}
        doc["result"] = run.result_line(doc, spec)
        self.assertEqual(doc["result"], {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"wall_s": {"value": 2.5, "unit": "s"},
                        "setup_s": {"value": 0.08, "unit": "s"},
                        "codes_per_s": {"value": 0.4, "unit": "1/s"}}})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results.json"
            run.write_results(path, doc)
            self.assertEqual(run.read_results(path), {"schema": run.SCHEMA, **doc})
            del doc["passes"]
            run.write_results(path, doc)
            with self.assertRaises(ValueError):
                run.read_results(path)

    def test_result_lists_every_metric_of_benchmark_json(self):
        spec = run.spec()
        names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual(len(names), len(spec["end_to_end"]) + len(spec["per_layer"]))
        spans = _traced_pass(PatchingTest.ARGVS)[1]
        layer_names = set(layer_metrics(spans, 0)) | {"trace.overhead_s"}
        self.assertEqual({m["name"] for m in spec["per_layer"]} - layer_names, set())
        self.assertEqual(set(workloads.WORKLOADS), {w["name"] for w in spec["workloads"]})
        self.assertEqual(set(tracer.LAYERS), {"chain_model", "resistance_engine", "st_isomer",
                                              "extremal_search", "exact_arith", "cli"})


if __name__ == "__main__":
    unittest.main()

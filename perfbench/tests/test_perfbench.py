"""Self-tests of the benchmark harness (no build, no runs).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib as bl  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


class Statistics(unittest.TestCase):
    def rep(self, wall, setup, rss, insts=8_000_000):
        return {"wall_s": wall, "setup_s": setup, "rss_mb": rss,
                "insts": insts}

    def test_run_reports_medians_of_its_repetitions(self):
        reps = [self.rep(5.0, 1.0, 100.0), self.rep(3.0, 3.0, 300.0),
                self.rep(4.0, 2.0, 200.0)]
        metrics, samples = run.aggregate(reps)
        self.assertEqual(list(metrics), list(run.END_TO_END_UNITS))
        self.assertEqual(metrics["wall_s"], 4.0)
        self.assertEqual(metrics["setup_s"], 2.0)
        self.assertEqual(metrics["peak_rss_mb"], 200.0)
        # insts / (median wall - median setup), in millions per second.
        self.assertAlmostEqual(metrics["sim_mips"], 4.0)
        self.assertEqual(samples["wall_s"], [5.0, 3.0, 4.0])

    def test_even_rep_count_takes_the_middle_mean(self):
        metrics, _ = run.aggregate([self.rep(4.0, 1.0, 10.0),
                                    self.rep(6.0, 1.0, 20.0)])
        self.assertEqual(metrics["wall_s"], 5.0)
        self.assertEqual(metrics["peak_rss_mb"], 15.0)

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.8, 10.1, 10.0, 12.5, 9.9, 10.3, 10.2, 11.0, 9.7, 10.4]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(bl.quartiles(values), (q1, q2, q3))
        self.assertAlmostEqual(bl.spread(values), (q3 - q1) / q2)

    def test_quartiles_of_one_value(self):
        self.assertEqual(bl.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(bl.spread([5.0]), 0.0)

    def test_spread_of_constant_series_is_zero(self):
        self.assertEqual(bl.spread([2.0] * 10), 0.0)


class ReferenceCsv(unittest.TestCase):
    REF = ("workload,4MB,8MB\n"
           "FIMI,5.683674765,2.724815059\n"
           "MDS,31.29103718,31.28340997\n")

    def write(self, d, name, text):
        path = Path(d) / name
        path.write_text(text)
        return path

    def test_trailing_status_column_is_ignored(self):
        with tempfile.TemporaryDirectory() as d:
            ref = self.write(d, "ref.csv", self.REF)
            got = self.write(d, "got.csv",
                             "workload,4MB,8MB,status\n"
                             "FIMI,5.683674765,2.724815059,ok\n")
            self.assertEqual(bl.compare_csv(got, ref, ["FIMI"]), [])

    def test_differing_value_names_the_column(self):
        with tempfile.TemporaryDirectory() as d:
            ref = self.write(d, "ref.csv", self.REF)
            got = self.write(d, "got.csv",
                             "workload,4MB,8MB,status\n"
                             "FIMI,5.683674765,2.724815058,ok\n")
            problems = bl.compare_csv(got, ref, ["FIMI"])
            self.assertEqual(len(problems), 1)
            self.assertIn("8MB", problems[0])

    def test_missing_row_and_header_change_fail(self):
        with tempfile.TemporaryDirectory() as d:
            ref = self.write(d, "ref.csv", self.REF)
            got = self.write(d, "got.csv", "workload,4MB,16MB,status\n"
                                           "FIMI,5.683674765,2.724815059,ok\n")
            problems = bl.compare_csv(got, ref, ["FIMI", "MDS"])
            self.assertTrue(any("header" in p for p in problems))
            self.assertTrue(any("MDS: row missing" in p for p in problems))

    def test_committed_references_parse(self):
        root = HERE.parent.parent
        for wl in run.WORKLOADS.values():
            for spec in wl["binaries"]:
                if spec["reference"]:
                    _, table = bl.read_csv_table(root / spec["reference"])
                    for k in spec["kernels"]:
                        self.assertIn(k, table)
                if spec["digest"]:
                    digests = bl.read_digest(root / spec["digest"])
                    self.assertEqual(sorted(digests),
                                     sorted(spec["kernels"]))

    def test_digest_mismatch_reported(self):
        ref = {"FIMI": (408257, "b0c74503c4ec617e")}
        self.assertEqual(bl.compare_digest(dict(ref), ref, "FIMI"), [])
        self.assertEqual(len(bl.compare_digest(
            {"FIMI": (408257, "0000000000000000")}, ref, "FIMI")), 1)
        self.assertEqual(len(bl.compare_digest({}, ref, "FIMI")), 1)


class LayerArithmetic(unittest.TestCase):
    def test_layers_plus_residual_add_up_to_run_phase(self):
        run_phase, softsdv, observe = 12.5, 2.2, 4.7
        residual = bl.delivery_residual(run_phase, softsdv, observe)
        self.assertAlmostEqual(residual, 5.6)
        self.assertAlmostEqual(softsdv + observe + residual, run_phase)

    def test_probe_column_mapping(self):
        self.assertEqual(run.probe_column("fig4", "4MB"), "4MB-64B")
        self.assertEqual(run.probe_column("fig6", "256MB"), "256MB-64B")
        self.assertEqual(run.probe_column("fig7", "1KB"), "32MB-1KB")
        self.assertEqual(run.probe_column("fig7", "64B"), "32MB-64B")
        self.assertIn("32MB-64B", run.CONFIGS)

    def test_paper_error_is_relative(self):
        row = ["0.24", "1", "50", "50", "500", "24", "7.77", "0.12",
               "12.01", "7.77"]
        err = run.paper_error({"table2_characteristics/SNP": {"csv": row}})
        self.assertAlmostEqual(err["SNP"]["ipc"], 1.0)
        self.assertAlmostEqual(err["SNP"]["dl2_mpki"], 0.0)


class Fingerprints(unittest.TestCase):
    def test_host_mismatch_refuses(self):
        a = {"nproc": 4, "cpu_model": "x", "compiler": "GNU 12",
             "build_type": "RelWithDebInfo", "revision": "abc"}
        b = dict(a, revision="def")
        self.assertEqual(bl.fingerprint_mismatch(a, b), [])
        self.assertEqual(bl.fingerprint_mismatch(a, dict(a, nproc=1)),
                         ["nproc"])

    def test_output_fingerprint_is_order_independent(self):
        x = {"a": {"csv": ["1"]}, "b": {"digest": [3, "ff"]}}
        y = {"b": {"digest": [3, "ff"]}, "a": {"csv": ["1"]}}
        self.assertEqual(bl.fingerprint_outputs(x),
                         bl.fingerprint_outputs(y))
        self.assertNotEqual(bl.fingerprint_outputs(x),
                            bl.fingerprint_outputs({"a": {"csv": ["2"]}}))


class NamesMatchBenchmarkJson(unittest.TestCase):
    def names(self, key):
        return [m["name"] for m in BENCHMARK[key]]

    def test_every_name_fits_the_charset(self):
        for key in ("workloads", "end_to_end", "per_layer"):
            for name in self.names(key):
                self.assertRegex(name, bl.NAME_RE)
                self.assertLessEqual(len(name), 64)
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_workloads_match(self):
        self.assertEqual(self.names("workloads"), list(run.WORKLOADS))

    def test_metrics_and_units_match(self):
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual(self.names(key), list(units))
            for m in BENCHMARK[key]:
                self.assertEqual(m["unit"], units[m["name"]])

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()

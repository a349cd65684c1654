"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import unittest
from unittest import mock

import run

WORKLOADS = ("construct", "check-perturbed", "classify-census", "strong-suites")


def setUpModule():
    os.chdir(run.ROOT)  # the benchmark's work files live under the root
    run.import_package()


def spec():
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


class SmokeTest(unittest.TestCase):
    def test_each_workload_reports_every_metric_with_its_unit(self):
        want_e2e = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        want_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        self.assertEqual([w["name"] for w in spec()["workloads"]], list(WORKLOADS))
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, report = run.execute(name, 1, 0.1, False, scale="tiny")
                self.assertEqual(result["failed"], 0, report["failures"])
                self.assertTrue(result["correct"])
                self.assertEqual(units(result["metrics"]), want_e2e)
                self.assertEqual(report["failed_frac"], 0.0)
                for key in ("commit", "python", "nproc", "seed", "src_sha256"):
                    self.assertIn(key, report)

                result, report = run.execute(name, 1, 0.1, True, scale="tiny")
                self.assertEqual(result["failed"], 0, report["failures"])
                self.assertEqual(report["absent"], [])
                self.assertEqual(units(result["metrics"]), want_layer)

    def test_wrong_verdict_in_the_checker_shows_as_failed_ops(self):
        import workloads

        real = workloads.oracle_verdict
        with mock.patch.object(workloads, "oracle_verdict",
                               lambda rho, ell: not real(rho, ell)):
            result, report = run.execute("check-perturbed", 1, 0.1, False, scale="tiny")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["failed_frac"], 1.0)

    def test_changed_output_fails_the_digest_check(self):
        import workloads

        ops = workloads.generate("strong-suites", 1, "tiny", run.workdir("strong-suites", "tiny"))
        pins = {op["name"]: "0" * 64 for op in ops}
        result, report = run.execute("strong-suites", 1, 0.1, False, scale="tiny", pins=pins)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("digest", report["failures"][0])

    def test_psi_scan_fraction_counts_candidates_in_scan_order(self):
        import itertools

        from rigidrel.kernel import PartialUnaryFn, mask_bits, subsets_colex
        from tracing import psi_scan_fraction

        k, ell = 4, 2
        order = []
        for dmask in subsets_colex(k, ell):
            points = mask_bits(dmask)
            for vals in itertools.permutations(range(k), ell):
                if vals != points:
                    order.append(PartialUnaryFn.from_pairs(k, zip(points, vals)))
        for i, f in enumerate(order):
            self.assertEqual(psi_scan_fraction(f, k, ell), (i + 1) / len(order))


if __name__ == "__main__":
    unittest.main()

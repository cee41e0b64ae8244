"""Self-test of the benchmark on small cases.

    python3 -m unittest discover -s perfbench/tests

Every pass starts a fresh interpreter on the sources of this checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

OPS = [
    ["decompose-product", "--rank", "2", "--p", "1", "--q", "1", "--m", "3", "--format", "json"],
    ["decompose-tensor", "--rank", "2", "--p", "1", "--q", "2", "--format", "json"],
    ["verify", "--n-max", "2", "--m-max", "2"],
]


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        env = run.child_env(run.ROOT, 0)
        cls.plain = run.run_pass(run.ROOT, env, OPS, trace=False)
        cls.traced = [run.run_pass(run.ROOT, env, OPS, trace=True) for _ in range(2)]

    def test_documents_are_byte_identical_with_tracing(self):
        self.assertTrue(all(status == 0 for status, _ in self.plain["results"]))
        for traced in self.traced:
            self.assertEqual(traced["results"], self.plain["results"])

    def test_traced_counts_repeat_exactly(self):
        first, second = (traced["trace"]["counts"] for traced in self.traced)
        self.assertEqual(first, second)
        # C2 (1,1) at m=3 forms |Y_1(3)| * |Y_1(1)| = 4 * 4 products
        self.assertGreaterEqual(first["products.formed"], 16)
        for name in ("monomials.string_stats.calls", "monomials.mul.calls",
                     "graphs.generate_closure.vertices", "graphs.is_closed.calls",
                     "tableaux.pairs_scanned", "tableaux.column.epsilon.calls"):
            self.assertGreater(first.get(name, 0), 0, name)
        self.assertEqual(first["cli.main.calls"], len(OPS))

    def test_every_alias_is_wrapped(self):
        aliases = set(self.traced[0]["trace"]["aliases"])
        for alias in ("products.generate_closure", "products.is_closed", "products.decompose_set",
                      "products.m_k_set", "cli.verify_range", "cli.decompose_product_bruteforce",
                      "cli.generate_closure", "cli.m_k_set", "cli.tensor_highest_weights",
                      "cncrystal.product_set", "monomials.Monomial.string_stats",
                      "monomials.Monomial.e", "tableaux.Column.f"):
            self.assertIn(alias, aliases)

    def test_spans_nest_inside_their_parents(self):
        spans = {sid: (name, start, end, parent)
                 for sid, name, start, end, parent in self.traced[0]["trace"]["spans"]}
        roots = [s for s in spans.values() if s[3] is None]
        self.assertEqual([s[0] for s in roots], ["cli.main"] * len(OPS))
        for name, start, end, parent in spans.values():
            if parent is not None:
                _, p_start, p_end, _ = spans[parent]
                self.assertTrue(p_start <= start <= end <= p_end, name)

    def test_user_vertex_budget_does_not_reach_the_child(self):
        with mock.patch.dict(os.environ, {"CRYSTAL_VERTEX_BUDGET": "3"}):
            env = run.child_env(run.ROOT, 0)
        self.assertEqual(run.run_pass(run.ROOT, env, OPS, trace=False)["results"],
                         self.plain["results"])


class GateTest(unittest.TestCase):
    def setUp(self):
        self.argv = ["decompose-product", "--rank", "2", "--p", "1", "--q", "1", "--m", "3",
                     "--format", "json"]
        self.document = json.dumps({"agreement": True, "components": []}) + "\n"
        self.expected = {run.op_key(self.argv): {"status": 0, "sha256": run.digest(self.document)}}

    def test_recorded_document_passes(self):
        self.assertIsNone(run.check_op(self.argv, 0, self.document, self.expected))

    def test_changed_exit_status_or_document_fails(self):
        self.assertIsNotNone(run.check_op(self.argv, 2, self.document, self.expected))
        self.assertIsNotNone(run.check_op(self.argv, 0, self.document + " ", self.expected))
        self.assertIsNotNone(run.check_op(self.argv[:-1] + ["text"], 0, self.document,
                                          self.expected))

    def test_disagreeing_references_fail_even_when_recorded(self):
        document = json.dumps({"agreement": False}) + "\n"
        expected = {run.op_key(self.argv): {"status": 0, "sha256": run.digest(document)}}
        self.assertIsNotNone(run.check_op(self.argv, 0, document, expected))

    def test_every_workload_op_has_a_recorded_document(self):
        expected = json.loads((run.HERE / "expected.json").read_text())["ops"]
        for ops in run.WORKLOADS.values():
            for argv in ops:
                self.assertIn(run.op_key(argv), expected)


class StandaloneTest(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

"""The examples readers run first: the README's library quick start and the
demos, whose whole output is pinned byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from cncrystal import (
    Monomial,
    ProductSpec,
    decompose_product_bruteforce,
    generate_closure,
    product_decomposition_closed_form,
)

REPO = Path(__file__).resolve().parents[1]


def test_readme_library_quick_start(monkeypatch):
    # budgets just above each step's size stop a faulty operator's closure early
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "5")
    graph = generate_closure([Monomial.generator(2, 1, 1)])
    assert len(graph.vertices) == 4
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "12101")  # 110 * 110 products are formed
    spec = ProductSpec(n=5, p=3, q=3, m=2)
    decomposition = decompose_product_bruteforce(spec)
    assert [c.size for c in decomposition] == [4004, 5005]
    assert product_decomposition_closed_form(spec) == ((2, 4), (3, 3))


DEMO_OUTPUTS = {
    "fundamental_crystals.py": "4d1c2ad54b8d97e69345ffeda2d041c368bd1c8a6e983e0635d8a2bef989ad75",
    "product_vs_tensor.py": "fa4f71904a861b750c67726635a1821ffaa83892bae99328ff172c9a020f2dfe",
    "tableau_oracle.py": "5b4f5e6b911d93c61377632f02753ae90186a37105467efca3caa2ba96970c65",
}


def test_demo_outputs_are_unchanged():
    # each demo in a fresh interpreter on this checkout's sources, under the default budget
    env = {k: v for k, v in os.environ.items() if k != "CRYSTAL_VERTEX_BUDGET"}
    env["PYTHONPATH"] = str(REPO / "src")
    changed = []
    for demo, digest in DEMO_OUTPUTS.items():
        result = subprocess.run(
            [sys.executable, str(REPO / "demos" / demo)],
            capture_output=True, env=env, cwd=REPO, timeout=120,
        )
        got = hashlib.sha256(result.stdout).hexdigest()
        if (result.returncode, got) != (0, digest):
            changed.append((demo, result.returncode, got, result.stderr.decode()[-500:]))
    assert changed == []

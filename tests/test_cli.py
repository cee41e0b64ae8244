import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cncrystal
from cncrystal import cli, products, tableaux
from cncrystal.cli import main
from cncrystal.graphs import CrystalInvariantError
from cncrystal.products import ProductSpec, fundamental_crystal
from cncrystal.rootdata import VertexBudgetExceeded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_dot_example(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--rank", "2", "--k", "1", "--m", "1", "--format", "dot"
    )
    assert code == 0
    assert out.count("[label=") == 7  # 4 nodes + 3 edges
    assert out.endswith("}\n")


def test_graph_json(capsys, monkeypatch):
    # a budget just above the crystal's 5 vertices stops a faulty operator's closure early
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "6")
    code, out, _ = run_cli(
        capsys, "graph", "--rank", "2", "--k", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 5
    assert all(len(edge) == 3 for edge in doc["edges"])


def test_elements_count_110(capsys):
    code, out, _ = run_cli(
        capsys, "elements", "--rank", "5", "--k", "3", "--m", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 110
    assert len(doc["elements"]) == 110


def test_elements_text_header(capsys):
    code, out, _ = run_cli(capsys, "elements", "--rank", "2", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=2 k=2 m=1 count=5"
    assert len(lines) == 6


def test_elements_allows_long_lengths(capsys):
    code, out, _ = run_cli(
        capsys, "elements", "--rank", "2", "--k", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_decompose_product_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose-product",
        "--rank", "5", "--p", "3", "--q", "3", "--m", "2",
        "--format", "text",
    )
    assert code == 0
    assert "2Λ3" in out and "Λ2+Λ4" in out
    assert "agreement=true" in out
    assert out.endswith("\n")


def test_decompose_product_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose-product",
        "--rank", "2", "--p", "1", "--q", "1", "--m", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agreement"] is True
    assert [(c["a"], c["c"]) for c in doc["components"]] == [(0, 2), (1, 1)]
    assert doc["closed_form"] == [[0, 2], [1, 1]]


def test_decompose_tensor(capsys):
    code, out, _ = run_cli(
        capsys, "decompose-tensor", "--rank", "3", "--p", "2", "--q", "2"
    )
    assert code == 0
    assert "oracle-agreement=true" in out


def test_verify_small_range(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--n-max", "2", "--m-max", "3"
    )
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary == {
        "summary": True,
        "n_max": 2,
        "m_max": 3,
        "cells": 12,
        "mismatches": 0,
    }
    assert all(json.loads(line)["match"] for line in lines[:-1])
    assert "elapsed" in err  # timing goes to stderr, not into the document


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["graph", "--rank", "1", "--k", "1"], "--rank"),
        (["graph", "--rank", "3", "--k", "4"], "--k"),
        (["elements", "--rank", "2", "--k", "5"], "--k"),
        (["decompose-product", "--rank", "2", "--p", "3", "--q", "1"], "--p"),
        (["decompose-product", "--rank", "2", "--p", "1", "--q", "0"], "--q"),
        (["decompose-product", "--rank", "2", "--p", "1", "--q", "1", "--m", "0"], "--m"),
        (["verify", "--n-max", "1", "--m-max", "2"], "--n-max"),
        (["verify", "--n-max", "2", "--m-max", "0"], "--m-max"),
        (["decompose-tensor", "--rank", "2", "--p", "3", "--q", "1"], "--p"),
        (["decompose-tensor", "--rank", "2", "--p", "1", "--q", "0"], "--q"),
        (["elements", "--rank", "1", "--k", "1"], "--rank"),
        (["verify", "--n-max", "2", "--m-max", "1", "--format", "json"], "--format"),
        (["graph", "--rank", "2", "--k", "1", "--format", "yaml"], "--format"),
    ],
)
def test_usage_errors_name_the_parameter(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    # one error line naming the flag, no traceback
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def test_unknown_arguments_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "graph", "--rank", "2", "--k", "1", "--bogus")
    assert code == 1
    assert "error" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "5")
    code, out, err = run_cli(
        capsys, "graph", "--rank", "5", "--k", "3", "--format", "dot"
    )
    assert code == 1
    assert out == ""
    assert err == "error: closure of Y3(1) at rank 5: 110 exceeds the vertex budget 5\n"
    for value in ("not-a-number", "0"):
        monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", value)
        code, out, err = run_cli(capsys, "graph", "--rank", "2", "--k", "1")
        assert code == 1
        assert out == ""
        assert err == f"error: CRYSTAL_VERTEX_BUDGET must be an integer >= 1, got {value!r}\n"


def test_graph_is_refused_by_its_size_before_the_walk(capsys, monkeypatch):
    # the closure of Y_k(m) is B(L_k), so dim B(L_k) is its exact size: at rank 30,
    # C(60, 15) - C(60, 13), far over the default budget, refused without walking
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "graph", "--rank", "30", "--k", "15")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: closure of Y15(1) at rank 30: 48027225765120 exceeds the vertex budget 1000000\n"
    )
    # a closure of exactly the budget is walked: Y3(2) at rank 5 closes to 110 elements
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "110")
    code, out, _ = run_cli(capsys, "graph", "--rank", "5", "--k", "3", "--m", "2", "--format", "json")
    assert (code, len(json.loads(out)["vertices"])) == (0, 110)
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "109")
    monkeypatch.setattr(cli, "generate_closure", lambda seeds: pytest.fail("the closure was walked"))
    code, out, err = run_cli(capsys, "graph", "--rank", "5", "--k", "3", "--m", "2")
    assert (code, out) == (1, "")
    assert err == "error: closure of Y3(2) at rank 5: 110 exceeds the vertex budget 109\n"


def test_budget_refuses_a_product_before_forming_it(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "1000")
    code, out, err = run_cli(
        capsys, "decompose-product", "--rank", "4", "--p", "2", "--q", "3", "--m", "2"
    )
    assert code == 1
    assert out == ""
    assert "lengths 2 and 3 at rank 4 form 27*48 products" in err
    assert "vertex budget 1000" in err


def test_budget_refuses_a_verify_cell_before_its_products_are_formed(capsys, monkeypatch):
    # The first cell, rank 2 with p = q = 1, forms 1, 2 and 4 products of the
    # dominant weights 2L1, L2 and 0, in that order; the 4 are each letter
    # times its negative.  4 is also the size of its factors, so they are
    # built (and cached) first, and only the products meet the budget.
    for k in (1, 2):
        fundamental_crystal(2, k)
    formed = []
    distinct_products = products._distinct_products

    def counted(pairs, spec):
        formed.append(sum(len(lw) * len(rw) for lw, rw in pairs))
        return distinct_products(pairs, spec)

    monkeypatch.setattr(products, "_distinct_products", counted)
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "3")
    with pytest.raises(VertexBudgetExceeded) as info:
        products.decompose_product_character(ProductSpec(2, 1, 1, 1))
    assert str(info.value) == (
        "lengths 1 and 1 at rank 2, products of weight 0: 4 exceeds the vertex budget 3"
    )
    assert formed == [1, 2]  # none of weight 0
    # the sweep's 4 cells are refused before the first
    formed.clear()
    code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--m-max", "1")
    assert (code, out, formed) == (1, "", [])
    assert err == "error: verify --m-max 1: cells: 4 exceeds the vertex budget 3\n"
    # at 4 the first cell passes; the p = q = 2 cell forms 5 products of weight 0
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "4")
    code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--m-max", "1")
    assert code == 1
    assert out == ""
    assert err == (
        "error: lengths 2 and 2 at rank 2, products of weight 0: 5 exceeds the vertex budget 4\n"
    )
    # the products of each weight, cell by cell: (p, q) = (1, 1), (1, 2), (2, 1), and (2, 2)
    # without weight 0
    assert formed == [1, 2, 4] + [1, 3] + [1, 3] + [1, 2, 2]
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "5")
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--m-max", "1")
    assert code == 0
    assert out.endswith('{"summary":true,"n_max":2,"m_max":1,"cells":4,"mismatches":0}\n')


@pytest.mark.parametrize(
    "n_max, m_max, needle",
    [
        # C(60, 30) X-words of length 30 at rank 30
        ("30", "1", "error: verify --n-max 30: length 30 at rank 30 walks C(60, 30) X-words"),
        # 4 * 10^8 cells at rank 2
        ("2", "100000000", "error: verify --m-max 100000000: cells: 400000000 exceeds"),
    ],
    ids=["n-max", "m-max"],
)
def test_verify_is_refused_before_its_first_cell(capsys, monkeypatch, n_max, m_max, needle):
    monkeypatch.setattr(products, "decompose_product_character",
                        lambda spec: pytest.fail(f"cell {spec} was computed"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--n-max", n_max, "--m-max", m_max)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith(needle) and err.endswith("exceeds the vertex budget 1000000\n")


def test_budget_refuses_the_column_oracle_before_any_column(capsys, monkeypatch):
    def no_columns(n, length):
        raise AssertionError("a column crystal was built")

    monkeypatch.setattr(tableaux, "column_crystal", no_columns)
    # C(8, 2) = 28 columns of length 2 fit, C(8, 3) = 56 of length 3 do not
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "55")
    code, out, err = run_cli(capsys, "decompose-tensor", "--rank", "4", "--p", "2", "--q", "3")
    assert code == 1
    assert out == ""
    assert "columns of length 3 at rank 4: 56 exceeds the vertex budget 55" in err
    monkeypatch.undo()
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "56")
    code, out, _ = run_cli(capsys, "decompose-tensor", "--rank", "4", "--p", "2", "--q", "3")
    assert code == 0
    assert out.endswith("oracle-agreement=true\n")


def test_budget_refuses_the_column_oracle_with_a_warm_cache(capsys, monkeypatch):
    # column_crystal is cached: a cache that already holds the 48 admissible
    # columns of length 3 at rank 4 must not skip the refusal of their C(8, 3) = 56
    assert len(tableaux.column_crystal(4, 3)) == 48
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "55")
    code, out, err = run_cli(capsys, "decompose-tensor", "--rank", "4", "--p", "2", "--q", "3")
    assert (code, out) == (1, "")
    assert err == "error: columns of length 3 at rank 4: 56 exceeds the vertex budget 55\n"


def test_invariant_errors_exit_2(capsys, monkeypatch):
    def broken(spec):
        raise CrystalInvariantError(f"product set for {spec} is not operator-closed")

    monkeypatch.setattr(cli, "decompose_product_bruteforce", broken)
    code, out, err = run_cli(
        capsys, "decompose-product", "--rank", "2", "--p", "1", "--q", "1", "--m", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: product set for ProductSpec(n=2, p=1, q=1, m=2)")


def test_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "5")  # just above the crystal's 4 vertices
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(
        capsys,
        "graph", "--rank", "2", "--k", "1", "--format", "dot",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("digraph crystal {") and text.endswith("}\n")


def test_unwritable_output_exits_1_naming_the_flag(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "graph.dot"):
        code, out, err = run_cli(
            capsys, "graph", "--rank", "2", "--k", "1", "--output", str(target)
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: --output {target}: ")


def test_documents_are_byte_deterministic(capsys, monkeypatch):
    # every command here runs under a budget of 25, not 24 (decompose-product forms 5 * 5
    # products); a budget of its own stops a faulty operator's closure early, where the
    # default would let it grow toward 10**6 vertices
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "100")
    examples = [
        ["graph", "--rank", "2", "--k", "1", "--m", "1", "--format", "dot"],
        ["elements", "--rank", "3", "--k", "2", "--m", "1", "--format", "json"],
        ["decompose-product", "--rank", "2", "--p", "2", "--q", "2", "--m", "2",
         "--format", "json"],
        ["decompose-tensor", "--rank", "3", "--p", "2", "--q", "3",
         "--format", "json"],
        ["verify", "--n-max", "2", "--m-max", "2"],
    ]
    for argv in examples:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_a_far_shift_is_decomposed_in_seconds(capsys):
    # its packed products are over 8 * 2 * 99999 bits wide; unpack reads a witness in one pass
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "decompose-product", "--rank", "2", "--p", "1", "--q", "1", "--m", "100000"
    )
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out == (
        "n=2 p=1 q=1 m=100000\n"
        "bruteforce components=3 total=16\n"
        "0 size=1 hw=Y1(3)^-1*Y1(100000)\n"
        "Λ2 size=5 hw=Y1(2)^-1*Y1(100000)*Y2(1)\n"
        "2Λ1 size=10 hw=Y1(1)*Y1(100000)\n"
        "closed-form (0,0) (0,2) (1,1)\n"
        "agreement=true\n"
    )


GOLDEN_DOCUMENTS = [
    ("graph --rank 2 --k 1 --format dot", 0,
     "88b6cb09ae64484a61ccffefe91deda5f8fc564dc575c5e2e7baeabc50a9167a"),
    ("graph --rank 3 --k 2 --format json", 0,
     "a9f9d97521e56aa59fb1738dca464e8af7e7a9b908a4327c879cffd09435ad05"),
    ("elements --rank 2 --k 2", 0,
     "38e0767c92c17509a5c87e811d5115089074d3aeda76410c788dae07931acbf6"),
    ("elements --rank 3 --k 2 --format json", 0,
     "8e0e635fed428c128e1909f6e195ea2c20f83ce1be386e1114db6576bf5b9d88"),
    ("decompose-tensor --rank 3 --p 2 --q 3", 0,
     "4b82939f11abbfcae0c5131768e875dfccf4e1ac3c964b46e4b201b0b7dcb34f"),
    ("decompose-tensor --rank 3 --p 2 --q 3 --format json", 0,
     "e2d4788712ee65ba8246975429b63ddf2365c45bdd9cd2e7363d11dad1ec4068"),
    ("decompose-product --rank 3 --p 2 --q 2 --m 2", 0,
     "b3df516c8e97590493fe2e2755d1e2627376038b95b86bde397dfd5109ce23b0"),
    ("decompose-product --rank 3 --p 2 --q 2 --m 2 --format json", 0,
     "0b7cbc3cdd4c0fec9e52e82b64fab5e551437aa47b86dffc0bff49fdd2893c9d"),
    ("verify --n-max 3 --m-max 3", 0,
     "6ce74d8879fa1e9452fc3dd7f3c0b4f0e3ef6389ecd634b2d76d05e27d2256ea"),
]


def test_golden_documents(capsys):
    # one small document per command and format, pinned byte for byte: a
    # change to how any document is written must change this table on purpose
    changed = []
    for command, status, digest in GOLDEN_DOCUMENTS:
        code, out, _ = run_cli(capsys, *command.split())
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if (code, got) != (status, digest):
            changed.append((command, code, got))
    assert changed == []


def test_console_entry_point_runs_in_subprocess():
    # fresh interpreter exercises hash-seed independence of the documents; the
    # child imports the same cncrystal as this process, installed or not
    package_root = str(Path(cncrystal.__file__).resolve().parents[1])
    cmd = [
        sys.executable, "-m", "cncrystal.cli",
        "elements", "--rank", "2", "--k", "1", "--format", "json",
    ]
    runs = set()
    for seed in ("0", "1", "2"):
        result = subprocess.run(
            cmd, capture_output=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": package_root},
        )
        assert result.returncode == 0, (
            f"PYTHONHASHSEED={seed}: exit {result.returncode}\n"
            + result.stderr.decode(errors="replace")
        )
        runs.add(result.stdout)
    assert len(runs) == 1


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks, such as a .pth that imports typing, out of the child
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import cncrystal.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"

"""Command-line front end.

Subcommands: graph, elements, decompose-tensor, decompose-product, verify.
Documents go to stdout (or --output) and always end with a newline; identical
commands produce byte-identical documents.  Exit status: 0 success, 1 usage
or resource error, 2 verification mismatch or broken invariant (reported as
"error: <message>" on stderr).  The environment variable CRYSTAL_VERTEX_BUDGET
overrides the vertex budget, which also bounds the words and products formed
and the columns the oracle walks.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from math import comb

from . import graphs
from .graphs import CrystalInvariantError, VertexBudgetExceeded, export, generate_closure
from .monomials import Monomial, m_k_set
from .products import (
    ProductSpec,
    decompose_product_bruteforce,
    decomposition_pairs,
    decomposition_to_json,
    product_decomposition_closed_form,
    tensor_decomposition_closed_form,
    verify_range,
    weight_of_pair,
)
from .tableaux import tensor_highest_weights


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors must exit 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cncrystal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, rank=True, m=False, k=False, pq=False, formats=("text", "json")):
        if rank:
            p.add_argument("--rank", type=int, required=True, help="rank n >= 2")
        if k:
            p.add_argument("--k", type=int, required=True, help="length index k")
        if pq:
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--q", type=int, required=True)
        if m:
            p.add_argument("--m", type=int, default=1, help="left base shift (default 1)")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write the document to this path")

    common(sub.add_parser("graph", help="crystal graph of Y_k(m)"),
           m=True, k=True, formats=("dot", "json"))
    common(sub.add_parser("elements", help="list the length-k fundamental set at base m"),
           m=True, k=True)
    common(sub.add_parser("decompose-tensor",
                          help="closed-form tensor decomposition, cross-checked"),
           pq=True)
    common(sub.add_parser("decompose-product",
                          help="brute-force and closed-form product decomposition"),
           pq=True, m=True)
    v = sub.add_parser(
        "verify",
        help="exhaustive closed-form check: highest weights sized by the Weyl "
        "dimension, completeness proved by counting each product set",
    )
    v.add_argument("--n-max", type=int, required=True)
    v.add_argument("--m-max", type=int, required=True)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--output", default=None)
    return parser


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _emit(document: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(document)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(document)
    except OSError as exc:
        raise UsageError(f"--output {output}: {exc.strerror}") from None


def _cmd_graph(args) -> tuple[int, str]:
    n, k, m = args.rank, args.k, args.m
    _require(n >= 2, f"--rank must be >= 2, got {n}")
    _require(1 <= k <= n, f"--k must be in [1, {n}], got {k}")
    graph = generate_closure([Monomial.generator(n, k, m)])
    return 0, export(graph, args.format)


def _cmd_elements(args) -> tuple[int, str]:
    n, k, m = args.rank, args.k, args.m
    _require(n >= 2, f"--rank must be >= 2, got {n}")
    _require(1 <= k <= 2 * n, f"--k must be in [1, {2 * n}], got {k}")
    elements = m_k_set(n, k, m)
    if args.format == "json":
        doc = {
            "n": n,
            "k": k,
            "m": m,
            "count": len(elements),
            "elements": [mon.to_json() for mon in elements],
        }
        return 0, json.dumps(doc, separators=(",", ":")) + "\n"
    lines = [f"n={n} k={k} m={m} count={len(elements)}"]
    lines.extend(mon.text() for mon in elements)
    return 0, "\n".join(lines) + "\n"


def _cmd_decompose_tensor(args) -> tuple[int, str]:
    n, p, q = args.rank, args.p, args.q
    _require(n >= 2, f"--rank must be >= 2, got {n}")
    _require(1 <= p <= n, f"--p must be in [1, {n}], got {p}")
    _require(1 <= q <= n, f"--q must be in [1, {n}], got {q}")
    # the column oracle walks every C(2n, length) letter combination
    for length in (p, q):
        graphs.check_budget(comb(2 * n, length), f"columns of length {length} at rank {n}")
    pairs = tensor_decomposition_closed_form(n, p, q)
    predicted = collections.Counter(weight_of_pair(n, a, c).coeffs for a, c in pairs)
    oracle = collections.Counter(
        w.coeffs for _, _, w in tensor_highest_weights(n, p, q)
    )
    agreement = predicted == oracle
    if args.format == "json":
        doc = {
            "n": n,
            "p": p,
            "q": q,
            "components": [
                {"a": a, "c": c, "lambda": list(weight_of_pair(n, a, c).coeffs)}
                for a, c in pairs
            ],
            "oracle_agreement": agreement,
        }
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    else:
        lines = [f"n={n} p={p} q={q} components={len(pairs)}"]
        lines.extend(f"({a},{c}) {weight_of_pair(n, a, c)}" for a, c in pairs)
        lines.append(f"oracle-agreement={'true' if agreement else 'false'}")
        text = "\n".join(lines) + "\n"
    return (0 if agreement else 2), text


def _cmd_decompose_product(args) -> tuple[int, str]:
    n, p, q, m = args.rank, args.p, args.q, args.m
    _require(n >= 2, f"--rank must be >= 2, got {n}")
    _require(1 <= p <= n, f"--p must be in [1, {n}], got {p}")
    _require(1 <= q <= n, f"--q must be in [1, {n}], got {q}")
    _require(m >= 1, f"--m must be >= 1, got {m}")
    spec = ProductSpec(n, p, q, m)
    decomposition = decompose_product_bruteforce(spec)
    predicted = product_decomposition_closed_form(spec)
    agreement = decomposition_pairs(decomposition) == predicted
    if args.format == "json":
        doc = decomposition_to_json(spec, decomposition)
        doc["closed_form"] = [list(x) for x in predicted]
        doc["agreement"] = agreement
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    else:
        lines = [
            f"n={n} p={p} q={q} m={m}",
            f"bruteforce components={len(decomposition)} total={decomposition.total_size}",
        ]
        for comp in decomposition:
            lines.append(f"{comp.weight} size={comp.size} hw={comp.witness}")
        lines.append(
            "closed-form " + " ".join(f"({a},{c})" for a, c in predicted)
        )
        lines.append(f"agreement={'true' if agreement else 'false'}")
        text = "\n".join(lines) + "\n"
    return (0 if agreement else 2), text


def _cmd_verify(args) -> tuple[int, str]:
    _require(args.n_max >= 2, f"--n-max must be >= 2, got {args.n_max}")
    _require(args.m_max >= 1, f"--m-max must be >= 1, got {args.m_max}")
    report = verify_range(args.n_max, args.m_max)
    # timing is diagnostics, not part of the deterministic document
    print(f"verify elapsed {report.elapsed_seconds:.2f}s", file=sys.stderr)
    return (0 if not report.mismatches else 2), report.to_jsonl()


_COMMANDS = {
    "graph": _cmd_graph,
    "elements": _cmd_elements,
    "decompose-tensor": _cmd_decompose_tensor,
    "decompose-product": _cmd_decompose_product,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    saved_budget = graphs.DEFAULT_VERTEX_BUDGET
    try:
        args = parser.parse_args(argv)
        budget_env = os.environ.get("CRYSTAL_VERTEX_BUDGET")
        if budget_env is not None:
            try:
                budget = int(budget_env)
            except ValueError:
                raise UsageError(f"CRYSTAL_VERTEX_BUDGET must be an integer, got {budget_env!r}")
            _require(budget >= 1, f"CRYSTAL_VERTEX_BUDGET must be >= 1, got {budget}")
            graphs.DEFAULT_VERTEX_BUDGET = budget
        status, document = _COMMANDS[args.command](args)
        _emit(document, args.output)
        return status
    except (UsageError, VertexBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrystalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        graphs.DEFAULT_VERTEX_BUDGET = saved_budget


if __name__ == "__main__":
    sys.exit(main())

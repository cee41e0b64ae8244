"""Command-line front end.

Subcommands: graph, elements, decompose-tensor, decompose-product, verify.
Documents go to stdout (or --output) and always end with a newline; identical
commands produce byte-identical documents.  Exit status: 0 success, 1 usage
or resource error (a library ValueError included), 2 verification mismatch or
broken invariant, each reported as "error: <message>" on stderr.  The library
reads CRYSTAL_VERTEX_BUDGET, which overrides the vertex budget, wherever it
enumerates, for this CLI and library callers alike.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import time

from .graphs import CrystalInvariantError, generate_closure
from .monomials import Monomial, m_k_set
from .products import (
    ProductSpec,
    decompose_product_bruteforce,
    decomposition_pairs,
    product_decomposition_closed_form,
    tensor_decomposition_closed_form,
    verify_range,
    weight_of_pair,
    weight_to_pair,
)
from .rootdata import VertexBudgetExceeded, check_budget, check_index, check_positive, check_rank
from .rootdata import weyl_dimension
from .tableaux import tensor_highest_weights


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors must exit 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cncrystal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, m=False, k=False, pq=False, formats=("text", "json")):
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
        help="exhaustive closed-form check, written as JSON lines: each product set's "
        "components peeled off its dominant-weight counts with Freudenthal multiplicities",
    )
    v.add_argument("--n-max", type=int, required=True)
    v.add_argument("--m-max", type=int, required=True)
    v.add_argument("--output", default=None)
    return parser


def _json(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _emit(document: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(document)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(document)
    except OSError as exc:
        raise UsageError(f"--output {output}: {exc.strerror}") from None


# Each command returns its exit status and its document's lines; main ends every line with "\n".
def _cmd_graph(args) -> tuple[int, list[str]]:
    n = check_rank(args.rank, "--rank")
    seed = Monomial.generator(n, check_index(n, args.k, "--k"), args.m)
    # the closure of Y_k(m) is B(L_k): its Weyl dimension refuses an over-budget one unwalked
    check_budget(weyl_dimension(seed.weight()), f"closure of {seed} at rank {n}")
    graph = generate_closure([seed])
    if args.format == "json":
        return 0, [_json({"vertices": [str(v) for v in graph.vertices],
                          "edges": [list(edge) for edge in graph.edges]})]
    # a label is Monomial.text(), which needs no DOT escaping
    return 0, [
        "digraph crystal {",
        *(f'  n{k} [label="{v}"];' for k, v in enumerate(graph.vertices)),
        *(f'  n{src} -> n{dst} [label="{i}"];' for src, i, dst in graph.edges),
        "}",
    ]


def _cmd_elements(args) -> tuple[int, list[str]]:
    n = check_rank(args.rank, "--rank")
    k, m = check_index(2 * n, args.k, "--k"), args.m
    elements = m_k_set(n, k, m)
    if args.format == "json":
        doc = {
            "n": n,
            "k": k,
            "m": m,
            "count": len(elements),
            "elements": [mon.to_json() for mon in elements],
        }
        return 0, [_json(doc)]
    return 0, [f"n={n} k={k} m={m} count={len(elements)}", *(mon.text() for mon in elements)]


def _cmd_decompose_tensor(args) -> tuple[int, list[str]]:
    n = check_rank(args.rank, "--rank")
    p, q = check_index(n, args.p, "--p"), check_index(n, args.q, "--q")
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
        lines = [_json(doc)]
    else:
        lines = [f"n={n} p={p} q={q} components={len(pairs)}"]
        lines.extend(f"({a},{c}) {weight_of_pair(n, a, c)}" for a, c in pairs)
        lines.append(f"oracle-agreement={'true' if agreement else 'false'}")
    return (0 if agreement else 2), lines


def _cmd_decompose_product(args) -> tuple[int, list[str]]:
    n = check_rank(args.rank, "--rank")
    p, q = check_index(n, args.p, "--p"), check_index(n, args.q, "--q")
    m = check_positive(args.m, "--m")
    spec = ProductSpec(n, p, q, m)
    decomposition = decompose_product_bruteforce(spec)
    predicted = product_decomposition_closed_form(spec)
    agreement = decomposition_pairs(decomposition) == predicted
    if args.format == "json":
        components = []
        for comp in decomposition:
            a, c = weight_to_pair(comp.weight)
            components.append({"a": a, "c": c, "lambda": list(comp.weight.coeffs),
                               "size": comp.size, "hw": comp.witness.text()})
        doc = {"n": n, "p": p, "q": q, "m": m, "components": components,
               "closed_form": [list(x) for x in predicted], "agreement": agreement}
        lines = [_json(doc)]
    else:
        lines = [
            f"n={n} p={p} q={q} m={m}",
            f"bruteforce components={len(decomposition)} total={sum(c.size for c in decomposition)}",
            *(f"{comp.weight} size={comp.size} hw={comp.witness}" for comp in decomposition),
            "closed-form " + " ".join(f"({a},{c})" for a, c in predicted),
            f"agreement={'true' if agreement else 'false'}",
        ]
    return (0 if agreement else 2), lines


def _cmd_verify(args) -> tuple[int, list[str]]:
    n_max, m_max = check_rank(args.n_max, "--n-max"), check_positive(args.m_max, "--m-max")
    start = time.perf_counter()
    cells = verify_range(n_max, m_max)
    # timing is diagnostics, not part of the deterministic document
    print(f"verify elapsed {time.perf_counter() - start:.2f}s", file=sys.stderr)
    # "bruteforce" holds the character path's pairs: the key predates that path
    lines = [
        _json({"n": spec.n, "p": spec.p, "q": spec.q, "m": spec.m,
               "bruteforce": [list(x) for x in found],
               "predicted": [list(x) for x in predicted], "match": found == predicted})
        for spec, found, predicted in cells
    ]
    mismatches = sum(found != predicted for _, found, predicted in cells)
    lines.append(_json({"summary": True, "n_max": n_max, "m_max": m_max,
                        "cells": len(cells), "mismatches": mismatches}))
    return (0 if not mismatches else 2), lines


_COMMANDS = {
    "graph": _cmd_graph,
    "elements": _cmd_elements,
    "decompose-tensor": _cmd_decompose_tensor,
    "decompose-product": _cmd_decompose_product,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status, lines = _COMMANDS[args.command](args)
        _emit("\n".join(lines) + "\n", args.output)
        return status
    except (UsageError, ValueError, VertexBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrystalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import json
import random
from collections import Counter

import pytest

from cncrystal.cli import main
from cncrystal.graphs import (
    CrystalInvariantError,
    decompose_set,
    generate_closure,
    is_closed,
)
from cncrystal import graphs, monomials
from cncrystal.monomials import Monomial, m_k_set, packed_rows, unpack
from cncrystal.products import ProductSpec, fundamental_crystal, product_set
from cncrystal.rootdata import VertexBudgetExceeded, Weight
from cncrystal.tableaux import Column
from tensor_reference import TensorPair
from undirected_walk_reference import undirected_decompose_set
from helpers import monomial_products, operator_rows


def test_closure_rank2_path():
    g = generate_closure([Monomial.generator(2, 1, 1)])
    assert len(g.vertices) == 4
    assert [i for _, i, _ in g.edges] == [1, 2, 1]
    # path shape: every vertex has at most one outgoing and one incoming edge
    outs = [src for src, _, _ in g.edges]
    ins = [dst for _, _, dst in g.edges]
    assert len(set(outs)) == len(outs) and len(set(ins)) == len(ins)


def test_closure_110_vertices(monkeypatch):
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "111")  # just above: a faulty closure stops early
    g = generate_closure([Monomial.generator(5, 3, 1)])
    assert len(g.vertices) == 110


def test_closure_of_identity_monomial():
    g = generate_closure([Monomial.one(3)])
    assert len(g.vertices) == 1
    assert g.edges == ()


def test_closure_from_any_element_is_its_fundamental_crystal():
    # a seed below the highest weight reaches the top through its e(i) images
    for n in (2, 3):
        for k in range(1, n + 1):
            crystal = fundamental_crystal(n, k)
            for x in crystal:
                vertices = generate_closure([x]).vertices
                assert vertices[0] == x and tuple(sorted(vertices)) == crystal, (n, k, x)


def test_closure_budget(monkeypatch):
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "10")
    message = r"closure of Y3\(1\) at rank 5 exceeds the vertex budget 10"
    with pytest.raises(VertexBudgetExceeded, match=message):
        generate_closure([Monomial.generator(5, 3, 1)])


def test_closure_requires_seeds():
    with pytest.raises(ValueError):
        generate_closure([])


def test_closure_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        generate_closure([Monomial.one(2), Monomial.one(3)])


def test_is_closed():
    full = generate_closure([Monomial.generator(2, 2, 1)]).vertices
    assert is_closed(full)
    assert not is_closed(full[:3])
    assert not is_closed({Monomial.generator(2, 1, 1)})  # highest weight: only its f(1) image leaves
    assert not is_closed({Monomial.generator(2, 1, 3, -1)})  # lowest weight: only its e(1) image leaves


# -- decomposition -----------------------------------------------------------------


def test_decompose_irreducible():
    vertices = generate_closure([Monomial.generator(2, 1, 1)]).vertices
    dec = decompose_set(vertices)
    assert len(dec) == 1
    comp = dec[0]
    assert comp.weight == Weight.fundamental(2, 1)
    assert comp.size == 4
    assert comp.witness == Monomial.generator(2, 1, 1)


# The closure of Y1(1) at rank 2 is the path Y1(1) -1-> a -2-> b -1-> c, so
# each truncation below has exactly one image outside it, which the error names.


def test_decompose_rejects_open_sets():
    vertices = generate_closure([Monomial.generator(2, 1, 1)]).vertices
    with pytest.raises(ValueError) as info:
        decompose_set(vertices[:2])
    assert str(info.value).startswith(f"f_2 of {vertices[1]} leaves the set")


def test_decompose_rejects_sets_missing_their_highest_weight():
    vertices = generate_closure([Monomial.generator(2, 1, 1)]).vertices
    with pytest.raises(ValueError, match="closed under e and f") as info:
        decompose_set(vertices[1:])
    assert str(info.value).startswith(f"e_1 of {vertices[1]} leaves the set")


def count_calls(monkeypatch, name):
    calls = []
    method = getattr(Monomial, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(Monomial, name, counted)
    return calls


def test_decompose_set_builds_each_f_edge_once(monkeypatch):
    products = monomial_products(ProductSpec(3, 2, 3, 2))  # formed before the count starts
    f_edges = sum(1 for v in products for i in (1, 2, 3) if v.phi(i))
    named = sum(ident is not None for v in products for _, ident in v.lowerings())
    assert named == f_edges == 209
    passes, scans, merges = (count_calls(monkeypatch, name)
                             for name in ("lowerings", "string_stats", "_merge"))
    decompose_set(products)
    # one key pass per element, naming each f-edge by its ident: no image is built
    assert (len(passes), len(scans), len(merges)) == (len(products), 0, 0) == (126, 0, 0)


def test_decompose_set_refuses_a_monomial_that_does_not_pack():
    lone = Monomial.generator(2, 1, 0)
    with pytest.raises(CrystalInvariantError, match=r"^Y1\(0\) does not pack: Y_1\(0\)\^1 is"):
        decompose_set(set(fundamental_crystal(2, 1)) | {lone})


def test_decompose_set_rejects_mixed_ranks():
    # Y_1(1) packs to 1 at every rank, so idents name elements only within one rank
    assert Monomial.generator(2, 1, 1).ident() == Monomial.generator(3, 1, 1).ident() == 1
    with pytest.raises(ValueError, match="^all elements must share one rank$"):
        decompose_set(fundamental_crystal(2, 1) + fundamental_crystal(3, 1))


def test_generate_closure_scans_each_string_once(monkeypatch):
    calls = count_calls(monkeypatch, "string_stats")
    graph = generate_closure([Monomial.generator(4, 3, 1)])
    assert len(graph.vertices) * 4 == len(calls) == 192


def reference_sets():
    """Closed sets the undirected walk decomposes: every rank-2 and rank-3 product
    cell with m <= 2n + 1, the three-fold rank-2 products and tensor pairs."""
    for n in (2, 3):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in range(1, 2 * n + 2):
                    yield f"product {n} {p} {q} {m}", monomial_products(ProductSpec(n, p, q, m))
    for factors in ([(1, 1), (1, 2), (2, 1)], [(2, 3), (1, 1), (2, 1)], [(1, 3), (1, 2), (1, 1)]):
        a, b, c = (m_k_set(2, k, m) for k, m in factors)
        yield f"three-fold {factors}", {x * y * z for x in a for y in b for z in c}
    for n, p, q in [(2, 1, 1), (2, 2, 1), (3, 1, 2), (3, 2, 3)]:
        left, right = fundamental_crystal(n, p), m_k_set(n, q, 2)
        yield f"tensor {n} {p} {q}", {TensorPair(a, b) for a in left for b in right}


def outcome(walk, elements):
    """The components walk returns, or the type of the error it raises."""
    try:
        return walk(elements)
    except (ValueError, CrystalInvariantError) as exc:
        return type(exc)


def test_decompose_set_matches_the_undirected_walk():
    opened = 0
    for name, elements in reference_sets():
        components = decompose_set(elements)
        assert components == undirected_decompose_set(elements), name
        # drop the highest-weight element of the largest component, then one in
        # the middle; a dropped one-element component leaves the set closed
        ordered = sorted(elements, key=lambda v: v.sort_key())
        top = max(components, key=lambda c: c.size).witness
        for dropped in (top, ordered[len(ordered) // 2]):
            truncated = set(elements) - {dropped}
            found = outcome(decompose_set, truncated)
            assert found == outcome(undirected_decompose_set, truncated), (name, str(dropped))
            opened += found is ValueError
    assert opened == 90 + 87  # of the 90 sets, every top drop and 87 middle drops open it


def packed_cells():
    """Every rank 2-4 product cell with m <= 2n + 1, and C5 (4,5) at m = 1 and m = 5."""
    for n in (2, 3, 4):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in range(1, 2 * n + 2):
                    yield ProductSpec(n, p, q, m)
    yield from (ProductSpec(5, 4, 5, 1), ProductSpec(5, 4, 5, 5))


def test_the_packed_walk_matches_the_monomial_walk():
    for spec in packed_cells():
        packed, formed = product_set(spec), monomial_products(spec)
        assert packed.keys() == {x.ident() for x in formed}, spec
        # weights, sizes and witnesses: the witnesses decode to the same monomials
        assert decompose_set(packed, spec.n) == decompose_set(formed), spec


def test_rows_read_per_pair_of_factor_rows_are_the_packed_rows():
    # product_set merges each pair of factor row classes from their digits, the left ones lifted
    # by m - 1 shifts, forming no product's bytes; its rows are those packed_rows cuts from each
    # product's own bytes, also where the factors lie far apart and a product is 200 kB wide
    far = [ProductSpec(n, p, q, 1000) for n in (2, 3, 4) for p in range(1, n + 1)
           for q in range(1, n + 1)]
    for spec in [*packed_cells(), *far, ProductSpec(2, 1, 1, 100000), ProductSpec(2, 2, 2, 100000)]:
        packed = product_set(spec)
        assert list(packed.values()) == packed_rows(spec.n, list(packed)), spec
        if (spec.n <= 3 and spec.m <= 2 * spec.n + 1) or spec.m == 100000:
            # both readers share _row_classes and _RowReader: the monomial operators check both
            for x, rows in packed.items():
                assert rows == operator_rows(unpack(spec.n, x)), (spec, x)


def test_a_packed_walk_refuses_a_rank_that_is_not_one():
    # the rank is checked before any row is read, also for an empty set
    packed = product_set(ProductSpec(2, 1, 1, 1))
    for rank in (1, True, 0, 2.0):
        for elements in (packed, set(packed), set()):
            with pytest.raises(ValueError, match=f"^rank must be an integer >= 2, got {rank!r}$"):
                decompose_set(elements, rank)


def failure(walk, elements):
    """The components walk returns, or the type and message of the error it raises."""
    try:
        return walk(elements)
    except (ValueError, CrystalInvariantError) as exc:
        return type(exc), str(exc)


def test_truncated_packed_sets_fail_as_the_monomial_walk_does():
    # walked in the same order (height, then ident), both name the same element
    opened = 0
    for spec in packed_cells():  # ranks 2-3, and rank 4 at m = 1 and m = 5
        if spec.n > 4:
            break
        if spec.n == 4 and spec.m not in (1, 5):
            continue
        formed = monomial_products(spec)
        ordered = sorted(formed, key=lambda v: v.sort_key())
        top = max(decompose_set(formed), key=lambda c: c.size).witness
        for dropped in (top, ordered[len(ordered) // 2]):
            truncated = formed - {dropped}
            found = failure(lambda s: decompose_set(s, spec.n), {x.ident() for x in truncated})
            assert found == failure(decompose_set, truncated), (spec, str(dropped))
            opened += found[0] is ValueError
    # of the 83 sets of ranks 2-3, every top drop and 80 middle drops open it; of the 32 of
    # rank 4, every drop does
    assert opened == 83 + 80 + 2 * 32


def test_elements_of_equal_height_are_walked_in_ident_order():
    # dropping the witness Y1(1)*Y2(1) leaves several elements of equal height without a parent;
    # both forms of the set name the one of least ident, as the walk takes it first
    spec = ProductSpec(3, 1, 2, 1)
    formed = monomial_products(spec) - {Monomial.generator(3, 1, 1) * Monomial.generator(3, 2, 1)}
    message = r"^e_2 of Y1\(1\)\*Y1\(2\)\*Y2\(2\)\^-1\*Y3\(1\) leaves the set, not closed"
    packed = {x.ident() for x in formed}
    for walk in (lambda: decompose_set(formed), lambda: decompose_set(packed, spec.n)):
        with pytest.raises(ValueError, match=message):
            walk()


def test_every_lowering_lowers_a_packed_int():
    # the packed walk takes its elements by decreasing int, which puts every parent before its
    # children because f_i adds the ident of A_i(s)^-1, whose top digit is -1
    for n in range(2, 10):
        for i in range(1, n + 1):
            for s in range(1, 2 * n + 5):
                assert monomials._lowering_ident(n, i, s) < 0, (n, i, s)
    for spec in packed_cells():
        offsets = {off for rows in product_set(spec).values() for _, _, off in rows}
        assert all(off < 0 for off in offsets - {None}), spec


def record_walks(monkeypatch) -> list:
    """The names of every walk decompose_set makes from now on, each in its walk's order."""
    walks = []
    walk = graphs._walk
    monkeypatch.setattr(graphs, "_walk",
                        lambda names, *rest: walks.append(list(names)) or walk(names, *rest))
    return walks


def test_a_closed_set_is_walked_once(monkeypatch):
    # a closed packed set needs no heights: only a fault sends it on the walk by height, which
    # names the fault that walk meets first; a product dict is walked in its own order, which is
    # not the order by decreasing int, a set by decreasing int; protocol elements take only the
    # walk by height
    walks = record_walks(monkeypatch)
    spec = ProductSpec(4, 2, 3, 4)
    packed = product_set(spec)
    assert list(packed) != sorted(packed, reverse=True)
    for elements, order in ((packed, list(packed)), (set(packed), sorted(packed, reverse=True))):
        walks.clear()
        decompose_set(elements, spec.n)
        assert walks == [order]
    walks.clear()
    decompose_set(monomial_products(spec))
    assert len(walks) == 1
    walks.clear()
    with pytest.raises(ValueError, match="leaves the set"):  # its highest int opens the set
        decompose_set(packed.keys() - {max(packed)}, spec.n)
    assert len(walks) == 2 and walks[0] == sorted(walks[1], reverse=True) != walks[1]


def test_every_brute_force_cell_is_walked_once(monkeypatch):
    # product_set forms its products x-major, both factors by decreasing int: at ranks 2-4 with
    # m <= n + 3, that order meets a parent of every product before it, so no cell needs heights
    cells = [ProductSpec(n, p, q, m) for n in (2, 3, 4) for p in range(1, n + 1)
             for q in range(1, n + 1) for m in range(1, n + 4)]
    walks = record_walks(monkeypatch)
    for spec in cells:
        packed = product_set(spec)
        walks.clear()
        decompose_set(packed, spec.n)
        assert walks == [list(packed)], spec
    assert len(cells) == 20 + 54 + 112


def test_the_walk_order_changes_no_result(monkeypatch):
    # reversed, a product dict meets a child before its parents, which refuses the walk if the set
    # has an edge, so it is walked again by height; shuffled, it may be.  Either way it gives the
    # components, or names the fault, of the dict as formed
    walks, shuffle = record_walks(monkeypatch), random.Random(29).shuffle
    for spec in [*(spec for spec in packed_cells() if spec.n <= 3), ProductSpec(4, 2, 3, 4)]:
        packed = product_set(spec)
        components = decompose_set(packed, spec.n)
        walks.clear()
        assert decompose_set(dict(reversed(packed.items())), spec.n) == components, spec
        assert len(walks) == 1 + (len(packed) > len(components)), spec
        items = list(packed.items())
        shuffle(items)
        assert decompose_set(dict(items), spec.n) == components, spec
    spec = ProductSpec(3, 1, 2, 1)
    truncated = product_set(spec)
    del truncated[(Monomial.generator(3, 1, 1) * Monomial.generator(3, 2, 1)).ident()]
    message = r"^e_2 of Y1\(1\)\*Y1\(2\)\*Y2\(2\)\^-1\*Y3\(1\) leaves the set, not closed"
    for _ in range(8):  # some orders meet another parentless element of that height first
        items = list(truncated.items())
        shuffle(items)
        with pytest.raises(ValueError, match=message):
            decompose_set(dict(items), spec.n)


def test_the_packed_walk_decodes_only_witnesses(monkeypatch):
    spec = ProductSpec(3, 2, 3, 4)
    # fills the caches of the factor crystals and of the f_i offsets
    components = decompose_set(product_set(spec), spec.n)
    built = []
    trusted = Monomial._trusted.__func__

    def counted(cls, rank, key):
        built.append(key)
        return trusted(cls, rank, key)

    scans = []
    scan_row = monomials._scan_row
    monkeypatch.setattr(monomials, "_scan_row", lambda *args: scans.append(args) or scan_row(*args))
    monkeypatch.setattr(Monomial, "_trusted", classmethod(counted))
    for name in ("lowerings", "string_stats", "_merge"):
        monkeypatch.setattr(Monomial, name, None)
    packed = product_set(spec)
    assert decompose_set(packed, spec.n) == components
    # one monomial per component, none per product or edge
    assert (len(packed), len(built)) == (196, len(components)) == (196, 3)
    # and one row scan per distinct row of the set, across forming the set and walking it
    rows = {(i, tuple(t for t in unpack(3, x).sort_key() if t[0] == i))
            for x in packed for i in (1, 2, 3)}
    assert len(scans) == len(rows) < 3 * len(packed)


def test_an_open_packed_set_decodes_only_its_suspect_and_the_witnesses_before(monkeypatch):
    # each witness dropped in turn opens the set; the walk decodes the witnesses it meets
    # first, then the one element whose e(i) image it finds missing from its ident index
    spec = ProductSpec(4, 2, 3, 4)
    packed = product_set(spec)
    witnesses = [c.witness.ident() for c in decompose_set(packed, spec.n)]
    decoded = []
    monkeypatch.setattr(graphs, "unpack", lambda n, x: decoded.append(x) or unpack(n, x))
    for dropped in witnesses:
        decoded.clear()
        with pytest.raises(ValueError, match="leaves the set, not closed") as info:
            decompose_set(packed.keys() - {dropped}, spec.n)
        *met, suspect = decoded
        assert set(met) <= set(witnesses) - {dropped} and len(set(met)) == len(met)
        assert suspect not in witnesses
        assert f" of {unpack(spec.n, suspect)} leaves" in str(info.value)
    assert len(packed) == 1288 and len(witnesses) == 4


def test_an_e_image_that_does_not_pack_leaves_the_set():
    # e_1 of Y1(1)^-1 multiplies by A_1(0), at shift 0: no set the walk accepts holds it
    lone = Monomial.generator(2, 1, 1, -1)
    for walk in (lambda: decompose_set({lone}), lambda: decompose_set({lone.ident()}, 2)):
        with pytest.raises(ValueError, match=r"^e_1 of Y1\(1\)\^-1 leaves the set, not closed"):
            walk()


def test_the_empty_set_has_no_components():
    assert decompose_set(set()) == decompose_set(set(), 3) == ()


def test_decompose_product_set_rank2():
    left = generate_closure([Monomial.generator(2, 1, 2)]).vertices
    right = generate_closure([Monomial.generator(2, 1, 1)]).vertices
    products = {a * b for a in left for b in right}
    dec = decompose_set(products)
    assert Counter(c.weight.coeffs for c in dec) == {(2, 0): 1, (0, 1): 1}
    assert sum(c.size for c in dec) == len(products)


def test_decompose_tensor_crystal_rank2():
    letters = generate_closure([Monomial.generator(2, 1, 1)]).vertices
    pairs = [TensorPair(a, b) for a in letters for b in letters]
    assert is_closed(pairs)
    dec = decompose_set(pairs)
    assert {(c.weight.coeffs, c.size) for c in dec} == {
        ((2, 0), 10),
        ((0, 1), 5),
        ((0, 0), 1),
    }


def test_decomposition_comparison_ignores_witnesses():
    left = generate_closure([Monomial.generator(2, 1, 3)]).vertices
    right = generate_closure([Monomial.generator(2, 1, 1)]).vertices
    d1 = decompose_set({a * b for a in left for b in right})
    pairs = [TensorPair(a, b) for a in left for b in right]
    d2 = decompose_set(pairs)
    # components are plain records: compared without their witnesses, the product
    # set and the tensor crystal have the same weights and sizes in the same order
    assert [(c.weight, c.size) for c in d1] == [(c.weight, c.size) for c in d2]
    assert [c.witness for c in d1] != [c.witness for c in d2]


def test_decompose_orders_repeated_constituents_by_witness():
    factors = [generate_closure([Monomial.generator(2, 1, m)]).vertices for m in (3, 2, 1)]
    products = {a * b * c for a in factors[0] for b in factors[1] for c in factors[2]}
    repeated = [c for c in decompose_set(products) if c.weight == Weight((1, 1))]
    assert [(c.size, str(c.witness)) for c in repeated] == [
        (16, "Y1(1)*Y2(2)"),
        (16, "Y1(3)*Y2(1)"),
    ]


class Toy:
    """Element of a hand-made rank-2 crystal: name -> (e table, f table, weight)."""

    rank = 2

    def __init__(self, table, name):
        self.table, self.name = table, name

    def _image(self, which, i):
        target = self.table[self.name][which].get(i)
        return None if target is None else Toy(self.table, target)

    def e(self, i):
        return self._image(0, i)

    def f(self, i):
        return self._image(1, i)

    def images(self, i):
        return self.e(i), self.f(i)

    def lowerings(self):
        return tuple((int(self.e(i) is not None), self.f(i)) for i in (1, 2))

    def ident(self):
        return self

    def weight(self):
        return Weight(self.table[self.name][2])

    def sort_key(self):
        return self.name

    def __eq__(self, other):
        return self.name == other.name

    def __lt__(self, other):  # decompose_set takes elements of equal height in ident order
        return self.name < other.name

    def __str__(self):
        return self.name

    def __hash__(self):
        return ord(self.name)  # the same set order in every process


def toy_set(table):
    return {Toy(table, name) for name in table}


def test_decompose_toy_crystal():
    # CPython iterates this set as h, a, b, c; equal constituents still come
    # out ordered by witness
    table = {
        "a": ({}, {1: "b"}, (1, 0)),
        "b": ({1: "a"}, {}, (-1, 1)),
        "c": ({}, {}, (0, 0)),
        "h": ({}, {}, (0, 0)),
    }
    dec = decompose_set(toy_set(table))
    assert [(c.weight.coeffs, c.size, c.witness.name) for c in dec] == [
        ((0, 0), 1, "c"),
        ((0, 0), 1, "h"),
        ((1, 0), 2, "a"),
    ]


@pytest.mark.parametrize(
    "table, message",
    [
        # two highest-weight elements a and b joined through c
        (
            {
                "a": ({}, {1: "c"}, (1, 0)),
                "b": ({}, {2: "c"}, (0, 1)),
                "c": ({1: "a", 2: "b"}, {}, (0, 0)),
            },
            "holds 2 highest-weight elements",
        ),
        # a closed 2-cycle: no element is highest weight
        (
            {"a": ({1: "b"}, {1: "b"}, (0, 0)), "b": ({1: "a"}, {1: "a"}, (0, 0))},
            "holds 0 highest-weight elements",
        ),
        ({"a": ({}, {}, (-1, 0))}, "is not dominant"),
        # f_2(b) = c but e_2(c) is None: b, the higher, lowers into c first, and
        # a's f_1 edge then reaches c in b's component
        (
            {
                "a": ({}, {1: "c"}, (1, 0)),
                "b": ({}, {2: "c"}, (0, 1)),
                "c": ({1: "a"}, {}, (-1, 1)),
            },
            "not pairwise disjoint|holds 2 highest-weight elements",
        ),
        # e_2(b) = a but f_2(a) is None: b has two e(i) images and one f(i) edge
        # enters it, though every image lies in the set
        (
            {"a": ({}, {1: "b"}, (1, 0)), "b": ({1: "a", 2: "a"}, {}, (-1, 1))},
            "e and f are not partial inverses: 2 e-images, 1 f-edges",
        ),
    ],
    ids=["two-highest-weights", "closed-cycle", "non-dominant", "not-partial-inverses",
         "e-without-f"],
)
def test_decompose_rejects_broken_crystals(table, message):
    with pytest.raises(CrystalInvariantError, match=message):
        decompose_set(toy_set(table))


def test_decompose_names_an_e_image_outside_the_set():
    # b is reached through f_1, so it opens no component; only the count of its
    # two e(i) images against its one incoming f(i) edge finds e_2(b) = x outside
    table = {"a": ({}, {1: "b"}, (1, 0)), "b": ({1: "a", 2: "x"}, {}, (-1, 1))}
    with pytest.raises(ValueError, match="^e_2 of b leaves the set, not closed under e and f$"):
        decompose_set(toy_set(table))


# -- tensor rule --------------------------------------------------------------------


def box(n, v):
    return Column(n, (v,))


def test_tensor_f_acts_left_on_equal_boxes():
    pair = TensorPair(box(2, 1), box(2, 1))
    lowered = pair.f(1)
    assert lowered == TensorPair(box(2, 2), box(2, 1))


def test_tensor_epsilon_cancellation():
    pair = TensorPair(box(2, 1), box(2, -1))
    assert pair.epsilon(1) == 0
    assert pair.phi(1) == 0  # string identity: wt = 0 forces phi = eps
    stretched = TensorPair(box(2, 1), box(2, -2))
    assert stretched.phi(1) == 2  # the f_1-string [1](x)[2b] -> [2](x)[2b] -> [2](x)[1b]


def test_tensor_null_propagation():
    hw = TensorPair(box(2, 1), box(2, 1))
    assert hw.e(1) is None
    assert hw.e(2) is None


def test_tensor_statistics_formulas():
    letters = [box(2, v) for v in (1, 2, -2, -1)]
    for a in letters:
        for b in letters:
            pair = TensorPair(a, b)
            for i in (1, 2):
                assert pair.epsilon(i) == max(
                    a.epsilon(i), b.epsilon(i) - a.weight().coeffs[i - 1]
                )
                assert pair.phi(i) == max(
                    b.phi(i), a.phi(i) + b.weight().coeffs[i - 1]
                )
                assert pair.weight() == a.weight() + b.weight()


# -- graph documents (written by cncrystal.cli) ----------------------------------------


def graph_document(capsys, n, k, fmt):
    code = main(["graph", "--rank", str(n), "--k", str(k), "--format", fmt])
    assert code == 0
    return capsys.readouterr().out


def test_export_path_dot(capsys):
    doc = graph_document(capsys, 2, 1, "dot")
    assert doc.count("[label=") == 4 + 3
    assert '[label="1"]' in doc and '[label="2"]' in doc
    assert doc.endswith("}\n")


def test_export_json_roundtrip(capsys):
    g = generate_closure([Monomial.generator(2, 2, 1)])
    doc = json.loads(graph_document(capsys, 2, 2, "json"))
    assert len(doc["vertices"]) == len(g.vertices)
    assert doc["edges"] == [list(edge) for edge in g.edges]
    assert doc["vertices"][0] == "Y2(1)"


def test_export_deterministic(capsys):
    for fmt in ("dot", "json"):
        runs = {graph_document(capsys, 3, 2, fmt) for _ in range(3)}
        assert len(runs) == 1


def test_edge_count_matches_phi_support():
    g = generate_closure([Monomial.generator(3, 2, 1)])
    expected = sum(
        1 for v in g.vertices for i in (1, 2, 3) if v.phi(i) > 0
    )
    assert len(g.edges) == expected

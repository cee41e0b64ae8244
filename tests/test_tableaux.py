import ast
import inspect
import itertools
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

import cncrystal
from cncrystal import monomials, tableaux
from cncrystal.graphs import generate_closure, is_closed
from cncrystal.monomials import Monomial
from cncrystal.rootdata import Weight, letter_alphabet, letter_order_index
from cncrystal.tableaux import (
    Column,
    column_crystal,
    column_is_admissible,
    tensor_highest_weights,
)
from tensor_reference import TensorPair


def test_letter_lowering_path():
    assert Column(4, (1,)).f(1) == Column(4, (2,))
    assert Column(4, (4,)).f(4) == Column(4, (-4,))
    assert Column(4, (-2,)).f(1) == Column(4, (-1,))
    assert Column(4, (1,)).f(2) is None
    assert Column(4, (-1,)).f(1) is None


def test_letter_raising_inverts_lowering():
    for n in range(2, 7):
        for x in column_crystal(n, 1):
            for i in range(1, n + 1):
                y = x.f(i)
                if y is not None:
                    assert y.e(i) == x


def test_letter_crystal_is_the_labeled_path():
    for n in range(2, 7):
        # B(L_1) is the column crystal of length 1
        letters = column_crystal(n, 1)
        assert [x.letters for x in letters] == [(v,) for v in letter_alphabet(n)]
        g = generate_closure([letters[0]])
        assert list(g.vertices) == list(letters)
        labels = [i for _, i, _ in g.edges]
        assert labels == list(range(1, n)) + [n] + list(range(n - 1, 0, -1))


def test_letter_weights():
    assert Column(3, (2,)).weight() == Weight.from_epsilon((0, 1, 0))
    assert Column(3, (-2,)).weight() == Weight.from_epsilon((0, -1, 0))


def test_column_admissibility_examples():
    assert column_is_admissible(Column(4, (1, 2, 3)))
    assert not column_is_admissible(Column(2, (1, -1)))
    assert column_is_admissible(Column(2, (2, -2)))


def test_column_admissibility_requires_increasing():
    with pytest.raises(ValueError):
        column_is_admissible(Column(2, (2, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        column_is_admissible(Column(2, (1, 1)))


def test_column_rejects_non_integer_letters():
    with pytest.raises(ValueError, match=r"letter value 1\.7"):
        Column(2, [1.7, 2.2])
    with pytest.raises(ValueError, match="letter value '1'"):
        Column(2, ["1"])
    with pytest.raises(ValueError, match="letter value True"):
        Column(2, [True])
    with pytest.raises(ValueError, match="^a column needs at least one letter$"):
        Column(2, ())


def test_sort_key_is_the_tuple_of_letter_order_indices():
    # sort_key skips the letter checks __init__ already made; the positions must not change
    for n in range(2, 7):
        alphabet = letter_alphabet(n)
        for length in range(1, 2 * n + 1):
            for combo in itertools.combinations(alphabet, length):
                column = Column(n, combo)
                assert column.sort_key() == tuple(letter_order_index(n, v) for v in combo)
        word = Column(n, alphabet[::-1] + alphabet)
        assert word.sort_key() == tuple(letter_order_index(n, v) for v in word.letters)


def test_column_crystal_rank2():
    cols = column_crystal(2, 2)
    assert {c.letters for c in cols} == {
        (1, 2),
        (1, -2),
        (2, -2),
        (2, -1),
        (-2, -1),
    }


def test_column_crystal_counts():
    assert len(column_crystal(2, 1)) == 4
    assert len(column_crystal(5, 3)) == 110


def test_column_crystal_is_in_increasing_sort_key_order():
    for n in range(2, 7):
        for length in range(1, n + 1):
            keys = [column.sort_key() for column in column_crystal(n, length)]
            assert all(a < b for a, b in zip(keys, keys[1:])), (n, length)


def test_column_crystal_cache_answers_no_unvalidated_key():
    # True == 1 and 2.0 == 2 hash alike: a cached (2, 1) must not answer them
    column_crystal(2, 1)
    for n, length in [(2, True), (2.0, 1)]:
        with pytest.raises(ValueError):
            column_crystal(n, length)


def test_column_crystal_closed_under_operators():
    for n, length in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
        cols = column_crystal(n, length)
        assert is_closed(cols)
        hw = [c for c in cols if c.is_highest_weight()]
        assert hw == [Column(n, tuple(range(1, length + 1)))]


def test_column_matches_monomial_component_sizes():
    for n in range(2, 6):
        for length in range(1, n + 1):
            cols = column_crystal(n, length)
            closure = generate_closure([Monomial.generator(n, length, 1)])
            assert len(cols) == len(closure.vertices)


def test_column_images_are_the_pair_of_e_and_f():
    for n in range(2, 5):
        for length in range(1, n + 1):
            for column in column_crystal(n, length):
                for i in range(1, n + 1):
                    assert column.images(i) == (column.e(i), column.f(i))
                for i in (0, n + 1):
                    with pytest.raises(ValueError) as by_e:
                        column.e(i)
                    with pytest.raises(ValueError) as by_images:
                        column.images(i)
                    assert str(by_images.value) == str(by_e.value)


def test_column_operator_example():
    top = Column(2, (1, 2))
    assert top.weight() == Weight.fundamental(2, 2)
    down = top.f(2)
    assert down == Column(2, (1, -2))
    assert down.e(2) == top


def test_tensor_highest_weights_rank2():
    result = tensor_highest_weights(2, 1, 1)
    assert len(result) == 3
    assert all(u == Column(2, (1,)) for u, _, _ in result)
    got = {(v.letters, w.coeffs) for _, v, w in result}
    assert got == {
        ((1,), (2, 0)),
        ((2,), (0, 1)),
        ((-1,), (0, 0)),
    }


def test_tensor_highest_weights_c5_example():
    result = tensor_highest_weights(5, 3, 3)
    assert len(result) == 9
    weights = Counter(w.coeffs for _, _, w in result)
    expected = Counter(
        {
            (0, 0, 2, 0, 0): 1,
            (0, 1, 0, 1, 0): 1,
            (1, 0, 0, 0, 1): 1,
            (1, 0, 1, 0, 0): 1,
            (0, 0, 0, 1, 0): 1,
            (0, 2, 0, 0, 0): 1,
            (0, 1, 0, 0, 0): 1,
            (2, 0, 0, 0, 0): 1,
            (0, 0, 0, 0, 0): 1,
        }
    )
    assert weights == expected


def test_tensor_highest_weights_top_pair():
    for n, p, q in [(2, 1, 2), (3, 2, 2), (4, 3, 2)]:
        result = tensor_highest_weights(n, p, q)
        top = (
            Column(n, tuple(range(1, p + 1))),
            Column(n, tuple(range(1, q + 1))),
        )
        entries = {(u, v): w for u, v, w in result}
        assert top in entries
        assert entries[top] == Weight.fundamental(n, p) + Weight.fundamental(n, q)


def test_first_factor_always_highest_weight():
    for n, p, q in [(2, 2, 1), (3, 2, 3), (4, 2, 2)]:
        for u, _, _ in tensor_highest_weights(n, p, q):
            assert u == Column(n, tuple(range(1, p + 1)))


def test_highest_weight_partner_shape():
    # second factors start with 1..a, continue p+1..b, close with bbar..(c+1)bar
    for n, p, q in [(3, 2, 2), (4, 3, 3), (4, 3, 2)]:
        for _, v, _w in tensor_highest_weights(n, p, q):
            positives = [x for x in v.letters if x > 0]
            negatives = [x for x in v.letters if x < 0]
            a = 0
            while a < len(positives) and positives[a] == a + 1:
                a += 1
            tail = positives[a:]
            assert tail == list(range(p + 1, p + 1 + len(tail)))
            if negatives:
                b = -negatives[0]
                expected = list(range(-b, -b + len(negatives)))
                assert negatives == expected
                if tail:
                    assert tail[-1] == b
    # (shape checked structurally; the weight bookkeeping is implied)


def test_column_text_and_json():
    col = Column(2, (2, -2))
    assert str(col) == "[2,2̄]"


# -- the signature rule against the two-factor tensor rule ---------------------------


def _letter_words():
    for n, max_length in [(2, 4), (3, 4), (4, 3)]:
        for length in range(1, max_length + 1):
            for word in itertools.product(letter_alphabet(n), repeat=length):
                yield n, word


def _flatten(element):
    if isinstance(element, TensorPair):
        return _flatten(element.left) + _flatten(element.right)
    return element.letters


def test_signature_rule_matches_the_tensor_fold():
    checked = 0
    for n, word in _letter_words():
        column = Column(n, word)
        folded = reduce(TensorPair, [Column(n, (v,)) for v in word])
        for i in range(1, n + 1):
            assert column.epsilon(i) == folded.epsilon(i), (word, i)
            assert column.phi(i) == folded.phi(i), (word, i)
            for ours, ref in ((column.e(i), folded.e(i)), (column.f(i), folded.f(i))):
                ours = None if ours is None else ours.letters
                ref = None if ref is None else _flatten(ref)
                assert ours == ref, (word, i)
        checked += 1
    assert checked == 2478


def test_tensor_highest_weights_match_an_exhaustive_pair_scan():
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                expected = tuple(
                    (u, v, u.weight() + v.weight())
                    for u in column_crystal(n, p)
                    for v in column_crystal(n, q)
                    if all(TensorPair(u, v).epsilon(i) == 0 for i in range(1, n + 1))
                )
                assert tensor_highest_weights(n, p, q) == expected, (n, p, q)


# -- the oracle shares no code with the monomial model --------------------------------


def _package_imports(module):
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.startswith("cncrystal"):
                found.add(name)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("cncrystal"))
    return found


def test_oracle_imports_only_root_data():
    assert _package_imports(tableaux) == {".rootdata"}
    # the budget lives in rootdata, so the monomial model needs nothing else either
    assert _package_imports(monomials) == {".rootdata"}


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks `from cncrystal import *`
    assert [name for name in cncrystal.__all__ if not hasattr(cncrystal, name)] == []
    # and every public name the package binds is exported, so a deleted name
    # cannot leave a stale import behind
    public = {
        name
        for name, value in vars(cncrystal).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(public - set(cncrystal.__all__)) == []

"""Nakajima monomials for type C_n and their crystal structure.

A monomial is a finitely supported integer exponent function on the variables
Y_i(m) with i in [1, n] and m in Z, stored as one sorted tuple of (i, m, e)
triples, one per nonzero exponent.  The crystal data is read off running
exponent sums along each row i, which is one run of increasing shifts:

    phi_i   = max over m of  sum_{k <= m} y_i(k)      (at least 0),
    eps_i   = max over m of -sum_{k >  m} y_i(k)      (at least 0),

with the lowering operator dividing by a root monomial at the smallest
maximizer shift and the raising operator multiplying by one at the largest.
Both maxima are attained inside the support window extended by one on each
side, so the scan below is lossless.

The sign conventions (which neighbour row is shifted inside the root
monomials, and the doubled exponent at i = n) are fixed once and for all
here; every other module builds on top of these operators.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from math import comb, prod
from operator import itemgetter

from .rootdata import (
    CrystalInvariantError,
    Weight,
    check_budget,
    check_index,
    check_rank,
    is_int,
    letter_alphabet,
    letter_order_index,
)

StringStats = namedtuple("StringStats", "epsilon phi n_e n_f")

ExponentKey = tuple[int, int]  # (row index i, shift m)
Triple = tuple[int, int, int]  # (row index i, shift m, exponent e)


def _check_shift(shift, name: str) -> None:
    """Monomial.__init__'s integer rule, for a shift handed to _trusted."""
    if not is_int(shift):
        raise ValueError(f"shift {name}={shift!r} must be an integer")


class Monomial:
    """Immutable Laurent monomial in the Y_i(m): _key, its nonzero (i, m, e) triples, sorted."""

    __slots__ = ("rank", "_key", "_hash", "_ident")

    def __init__(self, rank: int, exponents: Mapping[ExponentKey, int]):
        check_rank(rank)
        clean: dict[ExponentKey, int] = {}
        for (i, m), e in exponents.items():
            check_index(rank, i)
            if not (is_int(m) and is_int(e)):
                raise ValueError(f"Y_{i}({m!r})^{e!r}: shift and exponent must be integers")
            if e:
                clean[(i, m)] = e
        self.rank = rank
        self._key = tuple(sorted((i, m, e) for (i, m), e in clean.items()))
        self._hash, self._ident = hash((rank, self._key)), None

    @classmethod
    def _trusted(cls, rank: int, key: tuple[Triple, ...]) -> "Monomial":
        """Wrap a key already in canonical form (sorted, no zero exponents)."""
        obj = cls.__new__(cls)
        obj.rank, obj._key, obj._hash, obj._ident = rank, key, hash((rank, key)), None
        return obj

    @classmethod
    def one(cls, rank: int) -> "Monomial":
        check_rank(rank)
        return cls._trusted(rank, ())

    @classmethod
    def generator(cls, rank: int, i: int, m: int, exponent: int = 1) -> "Monomial":
        """Y_i(m)**exponent."""
        return cls(rank, {(i, m): exponent})

    # -- structure ---------------------------------------------------------

    def sort_key(self):
        return self._key

    def ident(self) -> int:
        """self as one int, kept: Y_i(s)^e is the balanced base-256 digit e at (s-1)*n + i-1,
        so shifting by a multiplies it by 256**(n*a).  Exponents in [-64, 64) keep the digits of a
        product of two, or of an f_i image, in [-128, 127], where the digits of an int are unique."""
        if self._ident is None:
            out, n = 0, self.rank
            for i, s, e in self._key:
                if s < 1 or not -64 <= e < 64:
                    raise CrystalInvariantError(
                        f"{self} does not pack: Y_{i}({s})^{e} is outside its field")
                out += e << 8 * ((s - 1) * n + i - 1)
            self._ident = out
        return self._ident

    # -- ring operations ----------------------------------------------------

    def _merge(self, triples: Iterable[Triple]) -> "Monomial":
        """self times each Y_i(m)**e, its key merged by _merged."""
        return Monomial._trusted(self.rank, _merged(self._key, triples))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return self._merge(other._key)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return self._merge((i, m, -e) for i, m, e in other._key)

    # -- crystal structure ---------------------------------------------------

    def weight(self) -> Weight:
        sums = [0] * self.rank
        for i, _, e in self._key:
            sums[i - 1] += e
        return Weight._trusted(tuple(sums))

    def string_stats(self, i: int) -> StringStats:
        """(eps_i, phi_i, n_e, n_f); the shifts are meaningful only when the
        corresponding statistic is positive."""
        check_index(self.rank, i)
        return StringStats._make(_scan_row(self._key, bisect_left(self._key, (i,)), i)[0])

    def epsilon(self, i: int) -> int:
        return self.string_stats(i).epsilon

    def phi(self, i: int) -> int:
        return self.string_stats(i).phi

    def images(self, i: int) -> "tuple[Monomial | None, Monomial | None]":
        """(e_i, f_i) from one string scan, as lowerings() names f_i for every row.
        e_i multiplies by A_i(n_e), or is None when eps_i = 0; f_i divides by
        A_i(n_f), or is None when phi_i = 0."""
        eps, phi, n_e, n_f = self.string_stats(i)
        up = self._merge(_root_triples(self.rank, i, n_e, 1)) if eps else None
        return up, self._merge(_root_triples(self.rank, i, n_f, -1)) if phi else None

    def lowerings(self) -> "tuple[tuple[int, int | None], ...]":
        """(eps_i, f_i's ident or None) per row, in one key pass: self's plus A_i(n_f)**-1's."""
        base, out, k = self.ident(), [], 0
        for i in range(1, self.rank + 1):
            (eps, phi, _, n_f), k = _scan_row(self._key, k, i)
            out.append((eps, base + _lowering_ident(self.rank, i, n_f) if phi else None))
        return tuple(out)

    def e(self, i: int) -> "Monomial | None":
        """Raising operator: the first of images(i)."""
        return self.images(i)[0]

    def f(self, i: int) -> "Monomial | None":
        """Lowering operator: the second of images(i)."""
        return self.images(i)[1]

    def is_highest_weight(self) -> bool:
        return all(self.string_stats(i).epsilon == 0 for i in range(1, self.rank + 1))

    # -- presentation ---------------------------------------------------------

    def to_json(self) -> list[list[int]]:
        return [list(t) for t in self._key]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self._hash == other._hash
            and self.rank == other.rank
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Monomial") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        if not self._key:
            return "1"
        return "*".join(
            f"Y{i}({m})" if e == 1 else f"Y{i}({m})^{e}" for i, m, e in self._key
        )

    def __repr__(self) -> str:
        return f"Monomial({self.rank}, {str(self)!r})"


def _merged(key: tuple[Triple, ...], triples: Iterable[Triple]) -> tuple[Triple, ...]:
    """key times each Y_i(m)**e, bisected into a copy of the sorted key: the product's key."""
    out = list(key)
    for i, m, e in triples:
        k = bisect_left(out, (i, m))
        if k < len(out) and out[k][0] == i and out[k][1] == m:
            e += out[k][2]
            if e:
                out[k] = (i, m, e)
            else:
                del out[k]
        else:
            out.insert(k, (i, m, e))
    return tuple(out)


def _scan_row(key: tuple[Triple, ...], k: int, i: int) -> tuple[tuple[int, int, int, int], int]:
    """string_stats of row i as a plain tuple, its run in key starting at index k, and the
    index past it.  One walk up the run keeps the prefix sum, a virtual 0 just below the run,
    so the maximum over all of Z is attained at that point or at a shift of it."""
    acc, best, n_f, n_e = 0, 0, None, None
    for j, m, e in itertools.islice(key, k, None):
        if j != i:
            break
        k += 1
        if n_f is None:
            n_f = m - 1
        if acc == best:
            n_e = m - 1  # the plateau holding the maximum ends just before this shift
        acc += e
        if acc > best:
            best, n_f = acc, m
        if acc == best:
            n_e = m
    return ((0, 0, 0, 0) if n_f is None else (best - acc, best, n_e, n_f)), k


def _root_triples(n: int, i: int, m: int, sign: int) -> tuple[Triple, ...]:
    """A_i(m)**sign (sign = 1 or -1) as (i, m, e) triples in key order, where
    A_i(m) = Y_i(m) Y_i(m+1) * (neighbour corrections).

    The neighbour below sits at shift m+1 (with a squared inverse when i = n),
    the neighbour above at shift m; rows 0 and n+1 are understood as absent.
    """
    below = ((i - 1, m + 1, -sign * (2 if i == n else 1)),) if i >= 2 else ()
    above = ((i + 1, m, -sign),) if i < n else ()
    return below + ((i, m, sign), (i, m + 1, sign)) + above


@lru_cache(maxsize=None)  # keys are (rank, row, shift): a few per set walked
def _lowering_ident(n: int, i: int, m: int) -> int:  # A_i(m)**-1's, for a shift m >= 1 of the key
    return Monomial._trusted(n, _root_triples(n, i, m, -1)).ident()


def unpack(n: int, ident: int) -> Monomial:
    """Inverse of Monomial.ident() at rank n, which it keeps, read from the bytes as packed_rows
    reads them.  Its triples are shared with every other decoded monomial's, as the images of
    a closure share theirs: a fundamental crystal then holds half the memory."""
    check_rank(n)
    size = _byte_size([ident])
    b = (ident + int.from_bytes(b"\x80" * size, "little")).to_bytes(size, "little")
    out = Monomial._trusted(n, tuple(sorted(_triple(k % n + 1, k // n + 1, b[k] - 128)
                                            for k in map(re.Match.start, _NONZERO.finditer(b)))))
    out._ident = ident
    return out


_NONZERO = re.compile(b"[^\x80]")  # a digit other than 0, found by a scan in C: shifts may be far
_triple = lru_cache(maxsize=None)(lambda *triple: triple)  # one per (i, s, e) decoded: a few


def _byte_size(idents: Iterable[int]) -> int:  # bytes that hold each balanced digit of them all
    return max(map(int.bit_length, map(abs, idents)), default=0) // 8 + 1


class _RowReader(dict):
    """Row i's records by its key: _scan_row reads each distinct row once."""

    def __init__(self, n: int, i: int):
        self.n, self.i = n, i

    def __missing__(self, key: tuple[Triple, ...]) -> tuple:
        eps, phi, _, n_f = _scan_row(key, 0, self.i)[0]
        self[key] = record = (eps, phi - eps, _lowering_ident(self.n, self.i, n_f) if phi else None)
        return record


def packed_rows(n: int, idents: list[int]) -> list[tuple]:
    """Per packed ident of rank n, in input order, its n row records (eps_i, wt_i = phi_i - eps_i,
    ident offset of f_i or None), building no monomial: _row_classes groups the idents by their
    row slices, and one _RowReader per row reads each class's key once."""
    classes, keys = _row_classes(n, idents, 0)
    records = [list(map(_RowReader(n, i).__getitem__, row)) for i, row in enumerate(keys, 1)]
    return list(zip(*[map(row.__getitem__, ids) for row, ids in zip(records, classes)]))


def product_rows(n: int, left: Sequence[int], right: Sequence[int], shift: int) -> dict[int, tuple]:
    """{(x << shift) + y: its packed_rows records} over the packed idents x in left, y in right,
    shift a multiple of 8n, filled x-major: a product formed twice keeps its first place.  Row i of
    a product merges its factors' rows i, the left one lifted by shift // 8n, so the factors' row-i
    slices fall into classes, and _scan_row reads each distinct _merged key of two classes once,
    forming no product's bytes.  Each left element's products are filled by C-level maps."""
    (left_ids, left_keys), (right_ids, right_keys) = (_row_classes(n, left, shift // (8 * n)),
                                                      _row_classes(n, right, 0))
    # per row i and left class: the row-i records of its products with each right element
    columns = [[list(map([read[_merged(x, y)] for y in ys].__getitem__, ids)) for x in xs]
               for read, xs, ys, ids in zip(map(_RowReader, [n] * n, range(1, n + 1)),
                                            left_keys, right_keys, right_ids)]
    out = {}
    for x, ids in zip(left, zip(*left_ids)):
        rows = zip(*map(list.__getitem__, columns, ids))
        out.update(zip(map((x << shift).__add__, right), rows))
    return out


def _row_classes(n: int, idents: Sequence[int], lift: int) -> tuple[list, list]:
    """Per row, each ident's class id, by the bytes of its row slice, and each class's key, its
    nonzero digits as (i, shift + lift, digit).  Adding 0x8080...80 makes each balanced digit a
    byte, digit + 128, with no carry, so row i is the slice [i-1::n]; to_bytes and cuts run in C."""
    size = _byte_size(idents)
    bias = int.from_bytes(b"\x80" * size, "little")
    width = itertools.repeat(size), itertools.repeat("little")  # to_bytes' other arguments
    digits = list(map(int.to_bytes, map(bias.__add__, idents), *width))
    classes, keys = [], []
    for i in range(1, n + 1):
        cuts = list(map(itemgetter(slice(i - 1, None, n)), digits))
        ids = dict(zip(dict.fromkeys(cuts), itertools.count()))
        classes.append(list(map(ids.__getitem__, cuts)))
        keys.append([tuple((i, d.start() + 1 + lift, ord(d[0]) - 128)
                           for d in _NONZERO.finditer(cut)) for cut in ids])
    return classes, keys


# -- X-variables and the fundamental sets M_k(m) -------------------------------


class XLetter(namedtuple("XLetter", "value shift")):
    """One-letter building block X_v(shift), v signed: +i unbarred, -i barred."""

    __slots__ = ()

    def __str__(self) -> str:
        v = self.value
        name = str(v) if v > 0 else f"{-v}̄"
        return f"X{name}({self.shift})"


def x_monomial(n: int, letter: XLetter) -> Monomial:
    """Y-form of an X-variable.

    Unbarred i at shift s is Y_i(s)/Y_{i-1}(s+1); barred i at shift s is
    Y_{i-1}(t)/Y_i(t) with t = s + n - i + 1.  Row 0 is absent.
    """
    check_rank(n)
    v, s = letter.value, letter.shift
    letter_order_index(n, v)  # range check
    _check_shift(s, "letter.shift")
    if v > 0:
        below = ((v - 1, s + 1, -1),) if v >= 2 else ()
        return Monomial._trusted(n, below + ((v, s, 1),))
    i = -v
    t = s + n - i + 1
    below = ((i - 1, t, 1),) if i >= 2 else ()
    return Monomial._trusted(n, below + ((i, t, -1),))


def m_k_words(n: int, k: int, m: int) -> Iterator[tuple[XLetter, ...]]:
    """All strictly increasing k-letter X-words with base shift m (top shift k+m-1)."""
    for combo in _letter_combinations(n, k, m):
        yield tuple(XLetter(v, k + m - 1 - j) for j, v in enumerate(combo))


def _letter_combinations(n: int, k: int, m: int) -> Iterator[tuple[int, ...]]:
    """The k-subsets of the 2n letters in increasing order, refused over the budget first."""
    check_rank(n)
    check_index(2 * n, k, "k")
    _check_shift(m, "m")
    check_budget(comb(2 * n, k), f"length {k} at rank {n} walks C({2 * n}, {k}) X-words")
    return itertools.combinations(letter_alphabet(n), k)


def m_k_idents(n: int, k: int) -> set[int]:
    """The idents of m_k_set(n, k, 1), building no monomial: an X-word's monomial is the product
    of its letters, so its ident is a sum over a (position, letter) -> ident table."""
    combos = _letter_combinations(n, k, 1)
    table = [{v: x_monomial(n, XLetter(v, k - j)).ident() for v in letter_alphabet(n)}
             for j in range(k)]
    return set(map(sum, map(map, itertools.repeat(dict.__getitem__), itertools.repeat(table),
                            combos)))


def m_k_set(n: int, k: int, m: int) -> tuple[Monomial, ...]:
    """The fundamental set of length-k monomials at base shift m, deduplicated.

    Distinct X-words can collide in Y-form; identity is always the canonical
    Y-exponent function.  Returned in canonical order.
    """
    one = Monomial.one(n)
    seen = {prod((x_monomial(n, x) for x in word), start=one) for word in m_k_words(n, k, m)}
    return tuple(sorted(seen))

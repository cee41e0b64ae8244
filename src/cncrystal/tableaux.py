"""Kashiwara-Nakashima column model for type C_n.

Letters are the 2n symbols 1 < 2 < ... < n < nbar < ... < 2bar < 1bar,
encoded as signed integers (+i unbarred, -i barred).  A letter is a one-box
column, and the letter crystal of one-box columns is the 2n-vertex path

    1 -1-> 2 -2-> ... -(n-1)-> n -n-> nbar -(n-1)-> ... -2-> 2bar -1-> 1bar,

whose arrows are read off the integers themselves.  A column [i_1 < ... < i_N]
carries the crystal structure of the word [i_1] (x) ... (x) [i_N] in
Kashiwara's tensor convention.  It is read off by the signature rule: going
down the column, write - for each letter with eps_i = 1 and + for each letter
with phi_i = 1, and let every + cancel the nearest free - below it.  Then
eps_i counts the free -, phi_i the free +, e_i raises the lowest free - and
f_i lowers the highest free +.  Admissible columns (the one-column condition
below) realize the fundamental crystal of highest weight L_N.  The i-signature
of a word u reduces to -^eps_i(u) +^phi_i(u), so the word u.v has
eps_i(u) + max(0, eps_i(v) - phi_i(u)) free -: Kashiwara's tensor rule.

This model is the independent oracle for tensor-product decompositions: it
imports only the root data and never touches the monomial realization.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import lru_cache
from math import comb

from .rootdata import (
    Weight,
    _letter_position,
    check_budget,
    check_index,
    check_rank,
    letter_alphabet,
    letter_order_index,
)


def _lowered(n: int, v: int, i: int) -> int | None:
    """f_i on the letter v: its successor on the letter-crystal path, or None."""
    if i < n:
        if v == i:
            return i + 1
        if v == -(i + 1):
            return -i
        return None
    return -n if v == n else None


def _raised(n: int, v: int, i: int) -> int | None:
    """e_i on the letter v: its predecessor on the letter-crystal path, or None."""
    if i < n:
        if v == i + 1:
            return i
        if v == -i:
            return -(i + 1)
        return None
    return n if v == -n else None


class Column:
    """Word of letters read top to bottom, acting as their tensor product."""

    __slots__ = ("rank", "letters", "_hash")

    def __init__(self, rank: int, letters: Iterable[int]):
        check_rank(rank)
        letters = tuple(letters)
        if not letters:
            raise ValueError("a column needs at least one letter")
        for v in letters:
            letter_order_index(rank, v)
        self.rank = rank
        self.letters = letters
        self._hash = hash((Column, rank, letters))

    def weight(self) -> Weight:
        eps = [0] * self.rank
        for v in self.letters:
            eps[abs(v) - 1] += 1 if v > 0 else -1
        return Weight.from_epsilon(eps)

    def _signature(self, i: int) -> tuple[list[int], list[int]]:
        """Positions of the free - and of the free + in the i-signature, top down."""
        n = self.rank
        check_index(n, i)
        minus: list[int] = []
        plus: list[int] = []
        for pos, v in enumerate(self.letters):
            if _raised(n, v, i) is not None:
                if plus:
                    plus.pop()
                else:
                    minus.append(pos)
            elif _lowered(n, v, i) is not None:
                plus.append(pos)
        return minus, plus

    def _replace(self, pos: int, value: int) -> "Column":
        letters = self.letters
        return Column(self.rank, letters[:pos] + (value,) + letters[pos + 1:])

    def epsilon(self, i: int) -> int:
        return len(self._signature(i)[0])

    def phi(self, i: int) -> int:
        return len(self._signature(i)[1])

    def images(self, i: int) -> "tuple[Column | None, Column | None]":
        """(e_i, f_i) from one signature; this holds both operators' rule:
        e_i raises the lowest free -, f_i lowers the highest free +."""
        minus, plus = self._signature(i)
        n, letters = self.rank, self.letters
        up = self._replace(minus[-1], _raised(n, letters[minus[-1]], i)) if minus else None
        return up, self._replace(plus[0], _lowered(n, letters[plus[0]], i)) if plus else None

    def e(self, i: int) -> "Column | None":
        """Raising operator: the first of images(i)."""
        return self.images(i)[0]

    def f(self, i: int) -> "Column | None":
        """Lowering operator: the second of images(i)."""
        return self.images(i)[1]

    def is_highest_weight(self) -> bool:
        return all(self.epsilon(i) == 0 for i in range(1, self.rank + 1))

    def sort_key(self):
        # the letters were validated by __init__
        n = self.rank
        return tuple(_letter_position(n, v) for v in self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Column)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "[" + ",".join(str(v) if v > 0 else f"{-v}̄" for v in self.letters) + "]"

    def __repr__(self) -> str:
        return f"Column({self.rank}, {self.letters})"


def column_is_admissible(column: Column) -> bool:
    """One-column condition: with i_k = p and i_l = pbar both present,
    the count k + (N - l + 1) of boxes weakly above p and weakly below pbar
    may not exceed p."""
    key = column.sort_key()
    if any(a >= b for a, b in zip(key, key[1:])):
        raise ValueError("admissibility is defined for strictly increasing columns")
    letters = column.letters
    positions = {v: k for k, v in enumerate(letters, start=1)}
    size = len(letters)
    for p in range(1, column.rank + 1):
        if p in positions and -p in positions:
            k, l = positions[p], positions[-p]
            if k + (size - l + 1) > p:
                return False
    return True


@lru_cache(maxsize=None, typed=True)  # typed: a cached (n, 1) must not answer (n, True)
def column_crystal(n: int, length: int) -> tuple[Column, ...]:
    """All admissible strictly increasing columns of the given length, in
    sort_key order, as the alphabet is listed in letter order.

    This is the fundamental crystal of highest weight L_length; closure under
    the operators is a theorem (and is asserted by the test suite), not
    something this enumeration enforces.  A cache hit enumerates nothing, so
    the caller checks the budget."""
    check_rank(n)
    check_index(n, length, "length")
    columns = (Column(n, combo) for combo in itertools.combinations(letter_alphabet(n), length))
    return tuple(filter(column_is_admissible, columns))


@lru_cache(maxsize=None)  # keyed by a cached column_crystal, so it scans once per (n, length)
def _highest_weights(crystal: tuple[Column, ...]) -> tuple[tuple[Column, Weight, list], ...]:
    return tuple((u, u.weight(), [u.phi(i) for i in range(1, u.rank + 1)])  # phi_i for every i
                 for u in crystal if u.is_highest_weight())


def tensor_highest_weights(
    n: int, p: int, q: int
) -> tuple[tuple[Column, Column, Weight], ...]:
    """All highest-weight pairs u (x) v with u, v in the fundamental crystals
    of lengths p and q.

    u (x) v is highest weight exactly when the word u.v is: by the tensor rule
    (module docstring), when eps_i(u) = 0 and eps_i(v) <= phi_i(u) for all i.
    A free - of u stays free in u.v: only a highest-weight u can start a pair.
    """
    check_rank(n)
    check_index(n, p, "p")
    check_index(n, q, "q")
    # before column_crystal, whose cache would skip it: a miss walks C(2n, length) combinations
    for length in (p, q):
        check_budget(comb(2 * n, length), f"columns of length {length} at rank {n}")
    left, right = column_crystal(n, p), column_crystal(n, q)
    out = []
    for u, wu, room in _highest_weights(left):
        for v in right:
            if all(v.epsilon(i) <= phi for i, phi in enumerate(room, start=1)):
                out.append((u, v, wu + v.weight()))
    return tuple(out)

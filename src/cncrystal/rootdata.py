"""Cartan data for the symplectic series C_n (n >= 2), in exact integer arithmetic.

Weights live in the lattice P = Z*L1 + ... + Z*Ln spanned by the fundamental
weights and are stored in that basis, so the coroot pairing <h_i, w> is a
coordinate lookup.  The orthogonal epsilon-basis (L_i = eps_1 + ... + eps_i)
used by tableau combinatorics is converted on demand; the change of basis is
unitriangular, hence an exact integer bijection.

The 2n weights +-eps_i of the vector representation are written as signed
letters (+i for eps_i, -i for -eps_i) in the order 1 < ... < n < -n < ... < -1;
both the monomial and the column model index their words by this alphabet.
The vertex budget and the invariant error live here, in the module every layer imports.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from functools import lru_cache
from operator import add, mul

DEFAULT_VERTEX_BUDGET = 10**6


class VertexBudgetExceeded(RuntimeError):
    """An enumeration would grow past the vertex budget (misuse guard)."""


class CrystalInvariantError(RuntimeError):
    """A structural fact the theory guarantees failed to hold."""


def vertex_budget() -> int:
    """CRYSTAL_VERTEX_BUDGET if set, else DEFAULT_VERTEX_BUDGET; read where it is enforced."""
    raw = os.environ.get("CRYSTAL_VERTEX_BUDGET")
    if raw is None:
        return DEFAULT_VERTEX_BUDGET
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"CRYSTAL_VERTEX_BUDGET must be an integer >= 1, got {raw!r}")


def check_budget(count: int, what: str) -> None:
    """Refuse, before it starts, an enumeration of count items over the budget."""
    budget = vertex_budget()
    if count > budget:
        raise VertexBudgetExceeded(f"{what}: {count} exceeds the vertex budget {budget}")


def is_int(x) -> bool:
    """Whether x is a Python integer; bool, float and str values are not."""
    return type(x) is int


def check_rank(n: int, name: str = "rank") -> int:
    if not is_int(n) or n < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
    return n


def check_positive(x: int, name: str) -> int:
    if not is_int(x) or x < 1:
        raise ValueError(f"{name}={x!r} must be an integer >= 1")
    return x


def check_index(n: int, i: int, name: str = "i") -> int:
    # is_int(i), inlined: this runs inside every string_stats, where a call costs a third more
    if type(i) is not int or not 1 <= i <= n:
        raise ValueError(f"index {name}={i!r} out of range [1, {n}]")
    return i


def _letter_position(n: int, value: int) -> int:
    """letter_order_index without its checks, for letters already validated."""
    return value - 1 if value > 0 else 2 * n + value


def letter_order_index(n: int, value: int) -> int:
    """Position of a signed letter in the order 1 < ... < n < -n < ... < -1."""
    check_rank(n)
    if not is_int(value) or value == 0 or abs(value) > n:
        raise ValueError(f"letter value {value!r} out of range for rank {n}")
    return _letter_position(n, value)


def letter_alphabet(n: int) -> tuple[int, ...]:
    """All 2n signed letters in increasing order."""
    check_rank(n)
    return tuple(range(1, n + 1)) + tuple(range(-n, 0))


class Weight:
    """Integer weight sum(coeffs[i-1] * L_i), stored in fundamental-weight coordinates."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)
        check_rank(len(self.coeffs))
        for c in self.coeffs:
            if not is_int(c):
                raise ValueError(f"weight coefficient {c!r} must be an integer")
        self._hash = hash(self.coeffs)

    @classmethod
    def _trusted(cls, coeffs: tuple[int, ...]) -> "Weight":  # unchecked: Monomial.weight()'s sums
        obj = cls.__new__(cls)
        obj.coeffs, obj._hash = coeffs, hash(coeffs)
        return obj

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, n: int) -> "Weight":
        check_rank(n)
        return cls((0,) * n)

    @classmethod
    def fundamental(cls, n: int, i: int) -> "Weight":
        """L_i, with the convention L_0 = 0."""
        check_rank(n)
        if i == 0:
            return cls.zero(n)
        check_index(n, i)
        return cls(tuple(1 if j == i else 0 for j in range(1, n + 1)))

    @classmethod
    def from_epsilon(cls, eps: Iterable[int]) -> "Weight":
        eps = tuple(eps)
        n = len(eps)
        check_rank(n)
        for x in eps:
            if not is_int(x):
                raise ValueError(f"epsilon coordinate {x!r} must be an integer")
        return cls(tuple(eps[i] - (eps[i + 1] if i + 1 < n else 0) for i in range(n)))

    def to_epsilon(self) -> tuple[int, ...]:
        n = self.rank
        out = [0] * n
        running = 0
        for j in range(n - 1, -1, -1):
            running += self.coeffs[j]
            out[j] = running
        return tuple(out)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def _check_same_rank(self, other: "Weight") -> None:
        if not isinstance(other, Weight):
            raise TypeError(f"expected Weight, got {type(other).__name__}")
        if other.rank != self.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Weight") -> "Weight":
        self._check_same_rank(other)
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_same_rank(other)
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            magnitude = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign}{magnitude}Λ{i}")
        return "".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Weight({self.coeffs})"


@lru_cache(maxsize=None)  # one table per rank, for weyl_dimension and every _freudenthal call
def _positive_roots(n: int) -> tuple[tuple[int, ...], ...]:
    """eps_i + s eps_j (j >= i) in epsilon-coordinates: the n^2 positive roots of C_n."""
    return tuple(tuple((k == i) + s * (k == j) for k in range(n))
                 for i in range(n) for j in range(i, n) for s in (1, -1) if j > i or s > 0)


@lru_cache(maxsize=None)  # the character path's peel asks the same weights at every m
def weyl_dimension(weight: Weight) -> int:
    """Dimension of the irreducible C_n module of dominant highest weight
    lambda, which is also the size of the crystal B(lambda).

    Weyl's formula is the product over positive roots alpha of
    <lambda + rho, alpha> / <rho, alpha>.  In epsilon-coordinates
    rho = (n, n-1, ..., 1) and the positive roots are eps_i - eps_j and
    eps_i + eps_j (i < j) and 2 eps_i; the form is the dot product, and the
    factor 2 of the long roots cancels.  Numerator and denominator are
    accumulated as integers and divided once; the quotient is exact.
    """
    if not weight.is_dominant():
        raise ValueError(f"weyl_dimension needs a dominant weight, got {weight}")
    n = weight.rank
    shifted = [x + r for x, r in zip(weight.to_epsilon(), range(n, 0, -1))]
    numerator = denominator = 1
    for alpha in _positive_roots(n):
        numerator *= sum(map(mul, shifted, alpha))
        denominator *= sum(map(mul, range(n, 0, -1), alpha))
    return numerator // denominator


@lru_cache(maxsize=None)  # the character path's peel asks the same pairs at every m
def weight_multiplicity(highest: Weight, weight: Weight) -> int:
    """Multiplicity of weight in the irreducible C_n module of dominant highest
    weight lambda: the number of elements of B(lambda) of that weight."""
    if not highest.is_dominant():
        raise ValueError(f"weight_multiplicity needs a dominant highest weight, got {highest}")
    highest._check_same_rank(weight)
    return _freudenthal(highest.to_epsilon(), _dominant(weight.to_epsilon()))


def _dominant(eps: tuple[int, ...]) -> tuple[int, ...]:
    """The dominant W-conjugate of an epsilon-vector: W signs and permutes coordinates."""
    return tuple(sorted(map(abs, eps), reverse=True))


@lru_cache(maxsize=None)
def _freudenthal(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Freudenthal's formula, exact, with the rho, roots and dot product of weyl_dimension:
    (|lam+rho|^2 - |mu+rho|^2) m(mu) = 2 sum_{alpha>0, k>=1} (mu+k alpha, alpha) m(mu+k alpha).
    mu is dominant, as W keeps m, so the cache holds only dominant pairs.  For the
    highest weights L_a + L_c of the character path, both are dominant integer
    vectors of squared length at most 4n, a set the rank bounds."""
    # mu is a weight of V(lam) only if lam - mu, a sum of simple roots, has no
    # negative partial sum and an even total
    sums = [sum(lam[:k]) - sum(mu[:k]) for k in range(1, len(lam) + 1)]
    if min(sums) < 0 or sums[-1] % 2 or mu == lam:
        return int(mu == lam)
    n, bound, total = len(lam), sum(map(mul, lam, lam)), 0
    for alpha in _positive_roots(n):
        # weights of V(lam) are at most |lam| long, and (mu, alpha) >= 0 makes
        # |mu + k alpha| grow with k: the string ends at the first k past |lam|
        nu = tuple(map(add, mu, alpha))
        while sum(map(mul, nu, nu)) <= bound:
            total += _freudenthal(lam, _dominant(nu)) * sum(map(mul, nu, alpha))
            nu = tuple(map(add, nu, alpha))
    # |lam+rho|^2 - |mu+rho|^2 = (lam - mu, lam + mu + 2 rho) > 0, as mu < lam
    gap = sum((a - b) * (a + b + 2 * r) for a, b, r in zip(lam, mu, range(n, 0, -1)))
    return 2 * total // gap


"""Reference tensor-product crystal, used by the tests as an independent
witness: the signature rule of the column oracle must agree with folding
letters through it, and closures of pairs must split as the tensor rule says.
"""


class TensorPair:
    """Ordered pair u (x) v with the standard tensor-product crystal structure."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left, right):
        if left is None or right is None:
            raise ValueError("tensor factors must be elements, not None")
        if left.rank != right.rank:
            raise ValueError("tensor factors must share a rank")
        self.left = left
        self.right = right
        self._hash = hash((TensorPair, left, right))

    @property
    def rank(self) -> int:
        return self.left.rank

    def weight(self):
        return self.left.weight() + self.right.weight()

    def epsilon(self, i: int) -> int:
        return max(
            self.left.epsilon(i),
            self.right.epsilon(i) - self.left.weight().coeffs[i - 1],
        )

    def phi(self, i: int) -> int:
        return max(
            self.right.phi(i),
            self.left.phi(i) + self.right.weight().coeffs[i - 1],
        )

    def e(self, i: int) -> "TensorPair | None":
        if self.left.phi(i) >= self.right.epsilon(i):
            up = self.left.e(i)
            return None if up is None else TensorPair(up, self.right)
        up = self.right.e(i)
        return None if up is None else TensorPair(self.left, up)

    def f(self, i: int) -> "TensorPair | None":
        if self.left.phi(i) > self.right.epsilon(i):
            down = self.left.f(i)
            return None if down is None else TensorPair(down, self.right)
        down = self.right.f(i)
        return None if down is None else TensorPair(self.left, down)

    def images(self, i: int) -> "tuple[TensorPair | None, TensorPair | None]":
        return self.e(i), self.f(i)

    def lowerings(self) -> "tuple[tuple[int, TensorPair | None], ...]":
        return tuple((self.epsilon(i), self.f(i)) for i in range(1, self.rank + 1))

    def ident(self) -> "TensorPair":
        return self

    def sort_key(self):
        return (self.left.sort_key(), self.right.sort_key())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorPair)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "TensorPair") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"{self.left}(x){self.right}"

    def __repr__(self) -> str:
        return f"TensorPair({self.left!r}, {self.right!r})"

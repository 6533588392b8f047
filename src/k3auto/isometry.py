"""Exact eigenvalue bookkeeping for finite-order isometries of the K3
cohomology lattice.

Eigenvalue sets are stored only as whole Galois orbits: full blocks Phi(d),
all primitive d-th roots of unity at once, with +1 as Phi(1) and -1 as
Phi(2).  Arbitrary single primitive roots are inexpressible, which keeps
every trace a rational integer.  A full Phi(d) block has rank phi(d)
(Euler's totient) and trace mu(d) (the Moebius function); both, and the
divisors of an order, come from trial division, since the orders here are
at most a few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

from .errors import PatternError

_UNIT_NAMES = {1: "1", 2: "-1"}  # pattern-literal names; any other block is Phi(d)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime p dividing n >= 1, with p^e the exact power."""
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _phi(d: int) -> int:
    """Euler's totient."""
    return math.prod(p ** (e - 1) * (p - 1) for p, e in _prime_powers(d))


def _mu(d: int) -> int:
    """The Moebius function."""
    powers = _prime_powers(d)
    return 0 if any(e > 1 for _, e in powers) else (-1) ** len(powers)


@dataclass(frozen=True)
class CyclotomicMultiset:
    """A Galois-stable eigenvalue multiset: full Phi(d) blocks, (d, count)
    pairs sorted by strictly increasing d.  The units are blocks too: +1 is
    Phi(1) and -1 is Phi(2)."""

    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen = 0
        for d, count in self.blocks:
            if count <= 0:
                raise PatternError("block counts must be positive")
            if d <= seen:
                raise PatternError("blocks must be sorted by strictly increasing d >= 1")
            seen = d

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "CyclotomicMultiset":
        """Build from {d: count}; zero counts are dropped."""
        for d, count in counts.items():
            if d <= 0:
                raise PatternError("block order d must be positive")
            if count < 0:
                raise PatternError("block counts must be nonnegative")
        return cls(tuple(sorted((d, c) for d, c in counts.items() if c)))

    @classmethod
    def units(cls, plus: int = 0, minus: int = 0) -> "CyclotomicMultiset":
        return cls.from_counts({1: plus, 2: minus})

    @classmethod
    def block(cls, d: int, count: int = 1) -> "CyclotomicMultiset":
        return cls.from_counts({d: count})

    @property
    def rank(self) -> int:
        return sum(count * _phi(d) for d, count in self.blocks)

    @property
    def trace(self) -> int:
        return sum(count * _mu(d) for d, count in self.blocks)

    def counts(self) -> dict[int, int]:
        """The multiset as {d: count}."""
        return dict(self.blocks)

    def power(self, exponent: int) -> "CyclotomicMultiset":
        """Eigenvalues of g^exponent given those of g.

        Each primitive d-th root goes to a primitive d'-th root where
        d' = d / gcd(d, exponent), and a full Phi(d) block becomes
        phi(d)/phi(d') copies of Phi(d').
        """
        result: dict[int, int] = {}
        for d, count in self.blocks:
            d_new = d // math.gcd(d, exponent)
            result[d_new] = result.get(d_new, 0) + count * (_phi(d) // _phi(d_new))
        return CyclotomicMultiset.from_counts(result)

    def sort_key(self):
        return tuple((d, -count) for d, count in self.blocks)

    def as_literal(self) -> str:
        """Render in the pattern-literal grammar, e.g. ``1*4, -1*8, Phi(11)``."""
        return ", ".join((_UNIT_NAMES.get(d) or f"Phi({d})") + (f"*{count}" if count > 1 else "")
                         for d, count in self.blocks)

    def __str__(self) -> str:
        return self.as_literal() or "(empty)"


@dataclass(frozen=True)
class IsometryPattern:
    """Eigenvalue pattern of an isometry split along S (algebraic) and T
    (transcendental)."""

    algebraic: CyclotomicMultiset
    transcendental: CyclotomicMultiset

    @property
    def rank(self) -> int:
        return self.algebraic.rank + self.transcendental.rank

    def as_literal(self) -> str:
        return f"S: [{self.algebraic.as_literal()}]; T: [{self.transcendental.as_literal()}]"

    def __str__(self) -> str:
        return self.as_literal()


def lefschetz_number(pattern: IsometryPattern) -> int:
    """Topological Lefschetz fixed-point number 2 + tr(S) + tr(T).

    The ``2 +`` hardcodes the H^0 and H^4 contributions of a surface with
    first Betti number zero; the pattern must cover all of H^2 (rank 22).
    """
    if pattern.rank != 22:
        raise PatternError(
            f"Lefschetz number needs a full rank-22 pattern, got rank {pattern.rank}"
        )
    return 2 + pattern.algebraic.trace + pattern.transcendental.trace


def completion_counts(pool: Sequence[tuple[int, object]], budget: int) -> list[list[int]]:
    """table[i][b]: the number of multisets over pool[i:], a sequence of
    (positive weight, item) pairs, whose weights sum to exactly b, for
    0 <= b <= budget (a coin-change count)."""
    table = [[1] + [0] * budget]
    for weight, _ in reversed(pool):
        row = table[-1][:]
        for b in range(weight, budget + 1):
            row[b] += row[b - weight]
        table.append(row)
    table.reverse()
    return table


def weighted_multisets(pool: Sequence[tuple[int, object]], budget: int,
                       table: list[list[int]]) -> list[tuple]:
    """All multisets over pool whose weights sum to exactly budget, each as
    its (item, count) runs in pool order, no count zero, and they come in
    pool-index order: more copies of pool[0] first, then, among equal
    counts, more copies of pool[1], and so on.  As no multiset of the budget
    is a prefix of another, this is their ascending order as index tuples.

    An explicit stack, not recursion: a multiset can hold up to budget
    items.  Each state fixes how many copies of pool[i] to take, and is
    pushed only if ``table`` (from ``completion_counts``) says it can still
    be completed, so every state leads to an output and the work follows
    the output size; the last pool index takes all that is left.  More
    copies are pushed last, so they pop first.
    """
    out: list[tuple] = []
    if not table[0][budget]:
        return out
    # (next pool index, budget left, runs so far)
    stack = [(0, budget, ())]
    while stack:
        i, left, acc = stack.pop()
        if left == 0:
            out.append(acc)
            continue
        weight, item = pool[i]
        if i == len(pool) - 1:
            out.append(acc + ((item, left // weight),))
            continue
        for count in range(left // weight + 1):
            rest = left - count * weight
            if table[i + 1][rest]:
                stack.append((i + 1, rest, acc + ((item, count),) if count else acc))
    return out


def char_poly_decompositions(order: int, rank: int, *,
                             allowed: Collection[int] | None = None) -> list[CyclotomicMultiset]:
    """All multisets of blocks Phi(d), d | order, with total rank ``rank``.

    ``allowed`` (if given) restricts d to that set.  Output is possibly
    empty and in ``CyclotomicMultiset.sort_key`` order: the pool is
    (phi(d), d) in increasing d, so ``weighted_multisets`` emits each
    multiset's (d, count) runs as its blocks and puts more copies of a
    smaller d first, as the key's (d, -count) pairs do, and no multiset of
    the rank is a prefix of another.
    """
    if order < 1 or rank < 0:
        raise ValueError("need order >= 1 and rank >= 0")
    pool = [(_phi(d), d) for d in divisors(order) if allowed is None or d in allowed]
    return [CyclotomicMultiset(runs)
            for runs in weighted_multisets(pool, rank, completion_counts(pool, rank))]


def local_curve_possible(weights_1: Iterable[int], weights_2: Iterable[int],
                         modulus: int) -> bool:
    """Whether some pair (a, b) from the two weight sets has a + b == 0 mod
    modulus — the condition for a smooth invariant curve through both fixed
    points to exist.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    w1 = [a % modulus for a in weights_1]
    w2 = [b % modulus for b in weights_2]
    if 0 in w1 or 0 in w2:
        raise ValueError("weights must be nonzero mod modulus")
    return any((a + b) % modulus == 0 for a in w1 for b in w2)


@dataclass(frozen=True)
class LocalAction:
    """Linearized action at an isolated fixed point: eigenvalues
    (zeta^p, zeta^q) with zeta a primitive ``order``-th root."""

    order: int
    weights: tuple[int, int]

    def __post_init__(self):
        if self.order < 2:
            raise PatternError("order must be at least 2")
        if any(w % self.order == 0 for w in self.weights):
            raise PatternError("an isolated fixed point needs nonzero weights")

    @property
    def omega_weight(self) -> int:
        """Weight of the action on the canonical form (sum of the two)."""
        return (self.weights[0] + self.weights[1]) % self.order

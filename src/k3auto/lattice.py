"""Integer lattices given by Gram matrices.

Builders cover the hyperbolic plane U, its scalings U(m), and the
negative-definite A/D/E root lattices (diagonal -2, adjacency +1).
`build_lattice` reads them from text (whitespace-insensitive, tokens from
`parsing.Lexer`):

    expr := term ('+' term)*            orthogonal sum
    term := atom ('(' INT ')')*         twist: every entry times INT
    atom := 'U' ['(' INT ')'] | ('A' | 'D' | 'E') index | '(' expr ')'
    index := INT | '(' INT ')'          written A10, A 10 or A(10)

INT may carry a leading '-' with no space after it; rank is capped at
`MAX_LATTICE_RANK`, and a bound on the bits of |det| at `MAX_DET_BITS`.
Invariants are exact per orthogonal component: det and signature by a Bareiss
elimination that touches only the rows it eliminates, discriminant groups by
Smith form mod gcd(|det|, M_{n-1}), the pivot before the last, or by none
where that gcd is 1 (a cyclic group) or, in `is_p_elementary`, where |det| is
not a power of p.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple, Sequence

from .errors import LatticeError, LatticeExprError, ParseError, Record
from .parsing import Lexer

# Rank cap of a lattice expression, checked before any Gram matrix is built.
MAX_LATTICE_RANK = 256

# Cap on a bound of the bits of |det|, and so of every number a report prints,
# checked at each atom and twist before it is built: at most 4,215 digits, below
# the interpreter's 4,300-digit int-to-str limit, above U(m) + U(m), m 1,000 digits.
MAX_DET_BITS = 14000

GramRow = tuple[int, ...]
Gram = tuple[GramRow, ...]


class Lattice(Record):
    """A finitely generated free Z-module with an integer Gram matrix."""

    __slots__ = _fields = ("gram",)

    def __init__(self, gram: Gram):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError("Gram matrix must be square")
        gram = tuple(tuple(map(int, row)) for row in gram)
        if gram != tuple(zip(*gram)):
            raise LatticeError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def twist(self, m: int) -> "Lattice":
        if m == 0:
            raise LatticeError("twist by zero")
        return Lattice(tuple(tuple(m * x for x in row) for row in self.gram))

    def direct_sum(self, *others: "Lattice") -> "Lattice":
        """Orthogonal sum of this lattice and the others, in that order."""
        summands = (self, *others)
        n = sum(lat.rank for lat in summands)
        rows = []
        for lat in summands:
            left = (0,) * len(rows)
            right = (0,) * (n - len(rows) - lat.rank)
            rows += [left + row + right for row in lat.gram]
        return Lattice(tuple(rows))

    def __add__(self, other: "Lattice") -> "Lattice":
        return self.direct_sum(other)


class SignaturePair(NamedTuple):
    """Counts of positive and negative squares; zeros only for degenerate
    Gram matrices."""

    positives: int
    negatives: int
    zeros: int = 0

    @property
    def pair(self) -> tuple[int, int]:
        return (self.positives, self.negatives)


class DiscGroup(NamedTuple):
    """Invariant factors (each dividing the next, 1's omitted) of the
    finite group dual(L)/L."""

    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)


def _adjacency_gram(n: int, edges: Sequence[tuple[int, int]]) -> Lattice:
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = -2
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return Lattice(tuple(tuple(row) for row in gram))


def hyperbolic_plane(m: int = 1) -> Lattice:
    """U(m): rank two, Gram [[0, m], [m, 0]]."""
    if m == 0:
        raise LatticeError("U(0) is degenerate")
    return Lattice(((0, m), (m, 0)))


def root_lattice_A(n: int) -> Lattice:
    if n < 1:
        raise LatticeError("A(n) needs n >= 1")
    return _adjacency_gram(n, [(i, i + 1) for i in range(n - 1)])


def root_lattice_D(n: int) -> Lattice:
    if n < 4:
        raise LatticeError("D(n) needs n >= 4")
    edges = [(i, i + 1) for i in range(n - 2)]
    edges.append((n - 3, n - 1))
    return _adjacency_gram(n, edges)


def root_lattice_E(n: int) -> Lattice:
    if n not in (6, 7, 8):
        raise LatticeError("E(n) needs n in {6, 7, 8}")
    # center 0 with legs of lengths 1, 2 and n-4
    edges = [(0, 1), (0, 2), (2, 3)]
    prev = 0
    for node in range(4, n):
        edges.append((prev, node))
        prev = node
    return _adjacency_gram(n, edges)


_ROOT_LATTICES = {"A": root_lattice_A, "D": root_lattice_D, "E": root_lattice_E}


class _LatticeExprParser:
    """The grammar of the module docstring.  Each method returns the list of
    summands it read; `parse` builds their orthogonal sum once."""

    def __init__(self, text: str):
        self.lx = Lexer(text)
        self.rank = self.det_bits = 0

    def parse(self) -> Lattice:
        first, *rest = self._expr()
        kind, _, pos = self.lx.peek()
        if kind != "END":
            raise LatticeExprError(f"trailing input at position {pos}")
        return first.direct_sum(*rest)

    def _expr(self) -> list[Lattice]:
        summands = self._term()
        while self.lx.peek()[0] == "+":
            self.lx.next()
            summands += self._term()
        return summands

    def _term(self) -> list[Lattice]:
        summands = self._atom()
        while self.lx.peek()[0] == "(":
            pos = self.lx.peek()[2]
            m = self._paren_number()
            self._reserve(0, sum(lat.rank for lat in summands) * abs(m).bit_length(), pos)
            summands = [lat.twist(m) for lat in summands]
        return summands

    def _atom(self) -> list[Lattice]:
        kind, name, pos = self.lx.next()
        if kind == "(":
            summands = self._expr()
            self.lx.expect(")")
            return summands
        if kind == "NAME" and name == "U":
            m = self._paren_number() if self.lx.peek()[0] == "(" else 1
            self._reserve(2, 2 * abs(m).bit_length(), pos)  # det -m^2
            return [hyperbolic_plane(m)]
        root = _ROOT_LATTICES.get(name[:1]) if kind == "NAME" else None
        suffix = name[1:]
        if root is None or suffix and not suffix.isdigit():
            raise LatticeExprError(f"expected a lattice name at position {pos}")
        if suffix:
            index = int(suffix)
        elif self.lx.peek()[0] == "(":
            index = self._paren_number()
        else:
            index = self._number()
        self._reserve(index, (index + 1).bit_length(), pos)  # det n + 1, 4 or 9 - n
        return [root(index)]

    def _reserve(self, rank: int, det_bits: int, pos: int) -> None:
        # running totals, checked at each atom and twist: |det| has at most
        # the bits of the atoms' dets plus rank * bits(m) for each twist by m;
        # a negative index, which lowers the rank, is rejected by its builder
        self.rank += rank
        if self.rank > MAX_LATTICE_RANK:
            raise LatticeExprError(f"lattice rank exceeds {MAX_LATTICE_RANK}")
        self.det_bits += det_bits
        if self.det_bits > MAX_DET_BITS:
            raise LatticeExprError(
                f"|det| may exceed the cap of {MAX_DET_BITS} bits at position {pos}")

    def _paren_number(self) -> int:
        self.lx.expect("(")
        value = self._number()
        self.lx.expect(")")
        return value

    def _number(self) -> int:
        kind, value, pos = self.lx.next()
        sign = 1
        if kind == "-" and self.lx.peek()[2] == pos + 1:  # '-' touches its digits
            sign = -1
            kind, value, _ = self.lx.next()
        if kind != "INT":
            raise LatticeExprError(f"expected an integer at position {pos}")
        return sign * int(value)


def build_lattice(expr: str) -> Lattice:
    """Build a lattice from an expression like "U + A10" or "U(11)"."""
    try:
        return _LatticeExprParser(expr).parse()
    except (LatticeError, ParseError) as exc:
        raise LatticeExprError(str(exc)) from exc


def _components(gram: Gram) -> list[list[int]]:
    """Sorted index sets of the orthogonal components: the connected
    components of the graph of the nonzero off-diagonal entries."""
    seen = [False] * len(gram)
    components = []
    for start in range(len(gram)):
        if seen[start]:
            continue
        seen[start] = True
        stack, component = [start], []
        while stack:
            i = stack.pop()
            component.append(i)
            for j in itertools.compress(range(len(gram)), gram[i]):
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(sorted(component))
    return components


def _block(gram: Gram, comp: list[int]) -> list[list[int]]:
    """The sub-matrix of `gram` on the sorted indices `comp`."""
    if len(comp) == 1:  # itemgetter of one index returns the entry itself
        return [[gram[comp[0]][comp[0]]]]
    pick = operator.itemgetter(*comp)
    return [list(pick(gram[r])) for r in comp]


def determinant_and_signature(lattice: Lattice) -> tuple[int, SignaturePair]:
    """Exact determinant and signature, one orthogonal component at a time
    (`_bareiss`): det multiplies and the signature counts add."""
    gram = lattice.gram
    det, counts = 1, [0, 0, 0]
    for comp in _components(gram):
        d, _, sig = _bareiss(_block(gram, comp))
        det *= d
        counts = [n + m for n, m in zip(counts, (sig.positives, sig.negatives, sig.zeros))]
    return det, SignaturePair(*counts)


def _bareiss(rows: list[list[int]]) -> tuple[int, int, SignaturePair]:
    """Exact determinant, the pivot before the last (M_{n-1}, 1 for n = 1)
    and signature in one fraction-free symmetric elimination (Bareiss).

    Once the first i rows are eliminated, entry (r, c) of the trailing
    block is the minor of the transformed matrix on rows 0..i-1, r and
    columns 0..i-1, c, so every division is exact and the next pivot is
    the leading minor M_{i+1}.  A row with a zero in the pivot row only
    changes scale, so it is left alone: row r keeps `last[r]`, the pivot
    of its last update, its stored entries times prev / last[r] are the
    minors, and it is brought to scale when it is next read.  Pivoting
    (simultaneous row/column swap, adding one row-and-column into another)
    is a congruence by a matrix of determinant +-1, so the last pivot is
    det(Gram), and the diagonal of the congruent diagonal form is
    M_i / M_{i-1}, of sign sign(M_i) * sign(M_{i-1}).  Zero diagonal
    entries of a degenerate matrix are counted separately.
    """
    n = len(rows)
    g = [list(row) for row in rows]
    last = [1] * n

    def swap(i: int, j: int):
        g[i], g[j] = g[j], g[i]
        last[i], last[j] = last[j], last[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    positives, before, prev = 0, 1, 1  # prev: leading minor eliminated so far
    for i in range(n):
        if not g[i][i]:
            # only the upper triangle of the trailing block is kept, and
            # only up to scale; the swap and the addition below read it all
            for r in range(i, n):
                if last[r] != prev:
                    g[r][r:] = [x * prev // last[r] for x in g[r][r:]]
                    last[r] = prev
                for c in range(r + 1, n):
                    g[c][r] = g[r][c]
            pivot_row = next((j for j in range(i + 1, n) if g[j][j]), None)
            if pivot_row is not None:
                swap(i, pivot_row)
            else:
                off = next(
                    ((r, c) for r in range(i, n) for c in range(r + 1, n) if g[r][c]),
                    None,
                )
                if off is None:
                    return 0, 0, SignaturePair(positives, i - positives, n - i)
                r, c = off
                if r != i:
                    swap(i, r)
                # both diagonal entries vanish, so this makes g[i][i] = 2*g[i][c]
                row_i, row_c = g[i], g[c]
                for k in range(i, n):
                    row_i[k] += row_c[k]
                for k in range(i, n):
                    g[k][i] += g[k][c]
        row_i = g[i]
        q = last[i]
        if q != prev:
            row_i[i:] = [x * prev // q for x in row_i[i:]]
        p = row_i[i]
        positives += (p > 0) == (prev > 0)  # the others are negative
        for r in itertools.compress(range(i + 1, n), row_i[i + 1:]):
            a, q = row_i[r], last[r]
            if q != prev:  # entry (r, i) at row r's own scale, also a minor
                a = a * q // prev
            g[r][r:] = [(p * x - a * y) // q for x, y in zip(g[r][r:], row_i[r:])]
            last[r] = p
        before, prev = prev, p
    return prev, before, SignaturePair(positives, n - positives, 0)


def discriminant_group(lattice: Lattice) -> DiscGroup:
    """Invariant factors of the Gram matrix over Z, omitting 1's.

    dual(L)/L of an orthogonal sum is the direct sum of the summands'
    groups: each orthogonal component is reduced on its own (`_smith_mod`),
    and a gcd/lcm sweep puts all their cyclic factors in divisibility order.
    """
    return DiscGroup(_invariant_factors(_component_dets(lattice.gram)))


def _component_dets(gram: Gram) -> list[tuple[list[list[int]], int, int]]:
    """(block, |det|, gcd(|det|, M_{n-1})) per orthogonal component; raises on a 0."""
    triples = []
    for comp in _components(gram):
        block = _block(gram, comp)
        det, minor, _ = _bareiss(block)
        if det == 0:
            raise LatticeError("degenerate lattice has no discriminant group")
        triples.append((block, abs(det), math.gcd(det, minor)))
    return triples


def _invariant_factors(triples: list[tuple[list[list[int]], int, int]]) -> tuple[int, ...]:
    diagonal = []
    for block, big_d, g in triples:
        if g == 1:  # cyclic, Z/|det| (nothing for a unimodular component)
            diagonal.append(big_d)
            continue
        # s_1, ..., s_{n-1} divide g and then comes gcd(s_n, g) > 1: rebuild s_n
        *rest, _ = _divisibility_order(_smith_mod(block, g))
        diagonal += rest + [big_d // math.prod(rest)]
    return tuple(_divisibility_order(diagonal))


def _divisibility_order(factors: list[int]) -> list[int]:
    """The same group's cyclic factors with 1's omitted, each dividing the
    ones after it (a gcd/lcm sweep)."""
    factors = [f for f in factors if f != 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            x, y = factors[i], factors[j]
            h = math.gcd(x, y)
            factors[i], factors[j] = h, x // h * y
    return [f for f in factors if f != 1]


def _smith_mod(rows: list[list[int]], m: int) -> list[int]:
    """Diagonal of a Smith form of the Gram matrix G modulo m: Z^n / (G Z^n +
    m Z^n) is the sum of its Z/a_i, in divisibility order the gcd(s_i, m) of
    G's invariant factors s_1 | ... | s_n.  For m = gcd(|det G|, M_{n-1}),
    which s_1 * ... * s_{n-1} = |det G| / s_n divides, they are s_i for i < n.
    """
    n = len(rows)
    a = [[x % m for x in row] for row in rows]
    diagonal = []
    for k in range(n):
        while True:
            # clear column k below the pivot with unimodular row operations
            row_k = a[k]
            for r in range(k + 1, n):
                row_r = a[r]
                b = row_r[k]
                if not b:
                    continue
                p = row_k[k]
                if p and b % p == 0:
                    # (1, 0): the plain extended gcd of (p, p) is (0, 1),
                    # which would swap the rows and cycle forever
                    q = b // p
                    row_r[k:] = [(y - q * x) % m for x, y in zip(row_k[k:], row_r[k:])]
                    continue
                u, v, s, t = _gcd_step(p, b)
                row_k[k:], row_r[k:] = (
                    [(u * x + v * y) % m for x, y in zip(row_k[k:], row_r[k:])],
                    [(s * y - t * x) % m for x, y in zip(row_k[k:], row_r[k:])],
                )
            # column k is now p*e_k, and m*e_k is a generator: the pivot
            # may be replaced by gcd(p, m)
            p = row_k[k] = math.gcd(row_k[k], m)
            # clear row k; a column operation that does not just subtract a
            # multiple of column k lowers the pivot to a proper divisor and
            # refills column k, so the loop ends
            dirty = None
            for c in range(k + 1, n):
                if row_k[c] % p == 0:
                    row_k[c] = 0
                elif dirty is None:
                    dirty = c
            if dirty is None:
                break
            u, v, s, t = _gcd_step(p, row_k[dirty])
            for r in range(k, n):
                row = a[r]
                x, y = row[k], row[dirty]
                row[k], row[dirty] = (u * x + v * y) % m, (s * y - t * x) % m
        diagonal.append(a[k][k])
    return diagonal


def _gcd_step(p: int, b: int) -> tuple[int, int, int, int]:
    """(u, v, s, t) such that the unimodular step x' = u*x + v*y,
    y' = s*y - t*x sends (p, b) to (gcd(p, b), 0)."""
    u, v = _ext_gcd(p, b)
    h = u * p + v * b
    return u, v, p // h, b // h


def is_p_elementary(lattice: Lattice, p: int) -> bool:
    """dual(L)/L isomorphic to (Z/p)^s for some s >= 0.  Its order is |det|,
    the product of the components' |det| (never 0: a degenerate one raises),
    so the Smith form runs only when that product is a power of p."""
    if p < 2:
        raise LatticeError("p must be at least 2")
    triples = _component_dets(lattice.gram)
    order = math.prod(big_d for _, big_d, _ in triples)
    while order % p == 0:
        order //= p
    return order == 1 and all(f == p for f in _invariant_factors(triples))


def even_unimodular_exists(positives: int, negatives: int) -> bool:
    """Whether an even unimodular lattice of this signature exists:
    the signature difference must vanish mod 8."""
    if positives < 0 or negatives < 0 or positives + negatives == 0:
        raise LatticeError("signature counts must be nonnegative and not both zero")
    return (positives - negatives) % 8 == 0


class DivisorSolveResult(NamedTuple):
    """Solution vectors, and whether the list is certified complete (true
    only for rank <= 2 with a usable linear constraint; bounded box
    searches are never certified)."""

    solutions: tuple[tuple[int, ...], ...]
    complete: bool


def _apply_gram(gram: Gram, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in gram)


def _form(gram: Gram, v: Sequence[int], w: Sequence[int]) -> int:
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def _box_search(gram, constraints, norm, bound):
    n = len(gram)
    hits = []
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        if _form(gram, v, v) != norm:
            continue
        if all(_form(gram, v, w) == c for w, c in constraints):
            hits.append(tuple(v))
    return hits


def divisor_class_solve(
    lattice: Lattice,
    dot_constraints: Sequence[tuple[Sequence[int], int]],
    norm: int,
    bound: int = 25,
) -> DivisorSolveResult:
    """Integer vectors v with v.v = norm and v.w = c for each constraint.

    In rank <= 2 with a constraint whose Gram image is nonzero, the linear
    equation is solved first and the quadratic condition restricted to that
    line, so the answer is complete no matter the bound.  Otherwise all
    vectors with entries bounded by `bound` are tried and the result says so.
    """
    gram = lattice.gram
    n = lattice.rank
    constraints = [(tuple(int(x) for x in w), int(c)) for w, c in dot_constraints]
    if any(len(w) != n for w, _ in constraints):
        raise LatticeError("constraint vector of wrong length")

    if n == 2:
        usable = next(
            ((w, c) for w, c in constraints if any(_apply_gram(gram, w))), None
        )
        if usable is not None:
            w0, c0 = usable
            alpha, beta = _apply_gram(gram, w0)
            g = math.gcd(alpha, beta)
            if c0 % g:
                return DivisorSolveResult((), True)
            # particular solution of alpha*x + beta*y = c0
            u, v = _ext_gcd(alpha, beta)
            base = (u * (c0 // g), v * (c0 // g))
            direction = (beta // g, -alpha // g)
            candidates = _solve_on_line(gram, base, direction, constraints, norm)
            if candidates is not None:
                return DivisorSolveResult(tuple(sorted(candidates)), True)
            # None: the quadratic condition is 0 = 0 on the line; search the box
    return DivisorSolveResult(tuple(sorted(_box_search(gram, constraints, norm, bound))), False)


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(u, v) with a*u + b*v = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_u, old_v = -old_u, -old_v
    return old_u, old_v

def _solve_on_line(gram, base, direction, constraints, norm):
    """Solutions base + k*direction; None when every k works (caller falls
    back to a box search)."""
    ks: list[int] | None = None  # None = unrestricted so far
    for w, c in constraints:
        img = _apply_gram(gram, w)
        slope = sum(i * d for i, d in zip(img, direction))
        offset = sum(i * b for i, b in zip(img, base))
        if slope == 0:
            if offset != c:
                return []
            continue
        if (c - offset) % slope:
            return []
        k = (c - offset) // slope
        ks = [k] if ks is None else [x for x in ks if x == k]

    a = _form(gram, direction, direction)
    b = 2 * _form(gram, base, direction)
    c = _form(gram, base, base) - norm
    if a == 0 and b == 0:
        if c != 0:
            return []
        if ks is None:
            return None  # whole line solves the system
        roots = ks
    elif a == 0:
        roots = [-c // b] if c % b == 0 else []
    else:
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        roots = [num // (2 * a) for num in (-b + r, -b - r)
                 if r * r == disc and num % (2 * a) == 0]
    if ks is not None:
        roots = [k for k in roots if k in ks]
    return [
        tuple(bi + k * di for bi, di in zip(base, direction)) for k in sorted(set(roots))
    ]


def brute_force_even_rank2(det_target: int, entry_bound: int) -> list[Lattice]:
    """All even rank-2 Gram matrices [[2a, b], [b, 2c]] with entries
    |a|, |b|, |c| <= entry_bound and determinant 4ac - b^2 = det_target."""
    if entry_bound < 0:
        raise LatticeError("entry bound must be nonnegative")
    out = []
    span = range(-entry_bound, entry_bound + 1)
    for a in span:
        for b in span:
            bb = b * b
            for c in span:
                if 4 * a * c - bb == det_target:
                    out.append(Lattice(((2 * a, b), (b, 2 * c))))
    return out

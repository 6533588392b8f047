"""Finite case enumerations behind the classification splits.

Three engines:

* ``rank_det_cases`` — the five (rank, det) candidates for the invariant
  sublattice and the parity rules that kill two of them;
* ``fiber_orbit_configs`` — singular-fiber configurations compatible with
  an Euler budget when all non-fixed fibers come in free orbits;
* ``order22_replay`` — eigenvalue-pattern eliminations showing no order-22
  action survives, with every candidate and its kill rule reported.

Geometric restrictions (which fiber types may sit at a fixed place, the
local weights at isolated fixed points) are explicit inputs recorded as
assumptions in the reports, never re-derived here.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .ellsurf import fiber_euler_number
from .isometry import (
    CyclotomicMultiset,
    IsometryPattern,
    char_poly_decompositions,
    completion_counts,
    lefschetz_number,
    local_curve_possible,
    weighted_multisets,
)
from .lattice import build_lattice, determinant_and_signature, even_unimodular_exists

REASON_OK = "ok"
REASON_MOD8 = "even-unimodular-mod-8"
REASON_MOD4 = "rank2-parity-mod-4"

RULE_GALOIS = "galois-orbit-rank"
RULE_NEGATIVE_FINITE = "negative-lefschetz-finite-locus"
RULE_LEFSCHETZ = "lefschetz-mismatch"
RULE_WEIGHTS = "fixed-curve-weight-check"

# enumeration budget of fiber_orbit_configs; each cap is a usage error
MAX_ORBIT_BUDGET = 3000  # total_euler // orbit_size
MAX_ORBIT_TABLE = 200_000  # entries of the completion-count table
# configurations, each weighted by its orbit budget (at least 1), counted
# before any is built: a configuration lists at most budget orbit types
MAX_ORBIT_OUTPUT = 2_000_000


class RankDetCase(NamedTuple):
    """One (rank M, det M) candidate with its feasibility verdict."""

    rank_m: int
    det_m: int
    s: int
    feasible: bool
    reason: str
    label: str | None

    def as_record(self) -> dict:
        return {
            "rank": self.rank_m,
            "det": self.det_m,
            "s": self.s,
            "feasible": self.feasible,
            "reason": self.reason,
            "label": self.label,
        }


def _rank2_even_det_possible(det: int) -> bool:
    # an even rank-2 Gram [[2a, b], [b, 2c]] has det 4ac - b^2 == 0 or 3 mod 4
    return det % 4 in (0, 3)


def rank_det_cases() -> list[RankDetCase]:
    """The five (rank, det) candidates for the rank-(2 or 12) invariant
    sublattice of an even unimodular lattice of signature (3, 19), with the
    orthogonal complement of rank divisible by 10 and 11-elementary glue.

    Infeasible cases carry the parity rule that kills them; feasible ones
    carry the lattice expression realizing them.
    """
    labels = {}
    for expr in ("U", "U(11)", "U + A10"):
        lat = build_lattice(expr)
        labels[lat.rank, determinant_and_signature(lat)[0]] = expr
    cases = []
    for rank_n in (20, 10):
        rank_m = 22 - rank_n
        for s in range(rank_n // 10 + 1):
            det_m = -(11 ** s)
            feasible, reason = True, REASON_OK
            if rank_m == 2 and not _rank2_even_det_possible(det_m):
                feasible, reason = False, REASON_MOD4
            elif det_m == -1:
                # unimodular and even: signature (1, rank-1) must satisfy
                # the mod-8 rule
                if not even_unimodular_exists(1, rank_m - 1):
                    feasible, reason = False, REASON_MOD8
            label = labels.get((rank_m, det_m)) if feasible else None
            cases.append(RankDetCase(rank_m, det_m, s, feasible, reason, label))
    cases.sort(key=lambda c: (c.rank_m, c.s))
    return cases


# ---------------------------------------------------------------------------
# fiber orbit configurations


def _type_key(symbol: str) -> tuple[int, str]:
    return (fiber_euler_number(symbol), symbol)


def kodaira_types_up_to(max_euler: int) -> tuple[str, ...]:
    """All Kodaira type symbols with Euler number <= max_euler, singular
    ones only (I0 is excluded)."""
    symbols = [f"I{n}" for n in range(1, max_euler + 1)]
    symbols += [f"I{n}*" for n in range(0, max(0, max_euler - 6) + 1)]
    symbols += ["II", "III", "IV", "IV*", "III*", "II*"]
    return tuple(s for e, s in sorted(set(map(_type_key, symbols))) if e <= max_euler)


class OrbitConfig(NamedTuple):
    """Fixed fibers at 0 and infinity plus a multiset of types, each of the
    latter in one free orbit of ``orbit_size`` fibers; ``euler_total`` is
    e(fiber 0) + e(fiber inf) + orbit_size * (sum of the orbit types' Euler
    numbers).  A named tuple, so equal to a plain tuple of its four fields."""

    fixed_fibers: tuple[str, str]
    orbit_fibers: tuple[str, ...]
    orbit_size: int
    euler_total: int

    def as_record(self) -> dict:
        return {
            "fixed": self.fixed_fibers,
            "orbits": self.orbit_fibers,
            "orbit_size": self.orbit_size,
            "euler_total": self.euler_total,
        }

    def __str__(self) -> str:
        orbit = ", ".join(map(f"{self.orbit_size}x".__add__, self.orbit_fibers))
        fixed = f"[0: {self.fixed_fibers[0]}, inf: {self.fixed_fibers[1]}"
        return fixed + (f", orbits: {orbit}]" if orbit else "]")


def fiber_orbit_configs(total_euler: int,
                        allowed_at_zero: Iterable[str],
                        allowed_at_inf: Iterable[str],
                        orbit_allowed: Iterable[str],
                        orbit_size: int = 11) -> list[OrbitConfig]:
    """Exhaustive configurations with e(fiber 0) + e(fiber inf) +
    orbit_size * sum(e(orbit types)) == total_euler.

    I0 cannot appear in an orbit (a free orbit of smooth fibers is not a
    singular-fiber datum) and is dropped from the orbit pool; it is allowed
    at the fixed places.  Configurations whose two fixed fibers could be
    swapped (both orders admissible) are reported once, in canonical order.

    The configurations are counted before any is built, and each budget's
    (type, count) runs are expanded once.  ValueError when total_euler //
    orbit_size exceeds MAX_ORBIT_BUDGET, the completion table would exceed
    MAX_ORBIT_TABLE entries, or the configurations, each weighted by its
    orbit budget (at least 1), exceed MAX_ORBIT_OUTPUT.
    """
    if total_euler // orbit_size > MAX_ORBIT_BUDGET:
        raise ValueError(f"total_euler // orbit_size exceeds the cap {MAX_ORBIT_BUDGET}")
    # each entry keyed once, in list order, so a ValueError names the first
    # unknown type of zero, then inf, then orbit
    zero = {_type_key(s) for s in allowed_at_zero}
    inf = {_type_key(s) for s in allowed_at_inf}
    orbit_keys = {_type_key(s) for s in orbit_allowed if s != "I0"}

    inf_keys = sorted(inf)  # by Euler number: each k0 stops at the first that does not fit
    canonical = set()
    for k0 in zero:
        for kinf in inf_keys:
            remaining = total_euler - k0[0] - kinf[0]
            if remaining < 0:
                break
            if remaining % orbit_size == 0:
                swappable = kinf in zero and k0 in inf
                canonical.add(min((k0, kinf), (kinf, k0)) if swappable else (k0, kinf))
    pairs = sorted(canonical)
    budgets = [(total_euler - k0[0] - kinf[0]) // orbit_size for k0, kinf in pairs]

    top = max(budgets, default=0)
    pool = sorted(k for k in orbit_keys if k[0] <= top)
    if (len(pool) + 1) * (top + 1) > MAX_ORBIT_TABLE:
        raise ValueError(f"the orbit completion table exceeds the cap {MAX_ORBIT_TABLE} entries")
    table = completion_counts(pool, top)
    if sum(table[0][b] * max(b, 1) for b in budgets) > MAX_ORBIT_OUTPUT:
        raise ValueError("the configurations, each weighted by its orbit budget, "
                         f"exceed the cap {MAX_ORBIT_OUTPUT}")

    # every canonical pair takes every multiset of its budget, so emitting
    # pair by pair in sorted order sorts the configurations
    orbits = {b: [sum([(s,) * c for s, c in runs], ())
                  for runs in weighted_multisets(pool, b, table)] for b in set(budgets)}
    fixed = [(k0[1], kinf[1]) for k0, kinf in pairs]
    return [OrbitConfig(pair, orbit, orbit_size, total_euler)
            for pair, budget in zip(fixed, budgets) for orbit in orbits[budget]]


# ---------------------------------------------------------------------------
# order-22 pattern eliminations


class CandidateRecord(NamedTuple):
    """One examined eigenvalue pattern and what happened to it."""

    label: str
    pattern: IsometryPattern
    lefschetz: int | None
    lefschetz_consistent: bool | None
    status: str  # "eliminated" | "survives"
    rule: str | None
    detail: str

    def as_record(self) -> dict:
        return {**self._asdict(), "pattern": self.pattern.as_literal()}


class EliminationReport(NamedTuple):
    scenario: str
    assumptions: tuple[str, ...]
    expected_lefschetz: int | None
    candidates: tuple[CandidateRecord, ...]

    @property
    def survivors(self) -> tuple[CandidateRecord, ...]:
        return tuple(c for c in self.candidates if c.status == "survives")

    def as_report(self) -> dict:
        return {**self._asdict(), "assumptions": list(self.assumptions),
                "candidates": [c.as_record() for c in self.candidates],
                "survivors": len(self.survivors)}


def _replay_order22_on_big_algebraic_part() -> EliminationReport:
    """Order-22 elimination when the algebraic part has rank 12.

    The square of the composite has order 11 and acts on the rank-12
    algebraic part either trivially or with one full primitive block; the
    involution acts there as +1 x4, -1 x8 and as the identity on the
    rank-10 transcendental part, where the order-11 square acts as the
    full primitive block.
    """
    assumptions = (
        "algebraic part has rank 12, transcendental part rank 10 (= phi(11))",
        "the involution acts on the algebraic part as +1 x4, -1 x8 "
        "(topological Lefschetz input) and trivially on the transcendental part",
        "the order-11 square acts on the transcendental part as the full "
        "primitive block and on the algebraic part with no other eigenvalues "
        "than 1 and full primitive blocks",
        "the involution's fixed locus is a finite set of points, and the "
        "composite's fixed locus sits inside it",
    )
    iota_plus, iota_minus = 4, 8
    candidates = []
    for square_on_algebraic in char_poly_decompositions(11, 12):
        primitive_blocks = square_on_algebraic.counts().get(11, 0)
        if primitive_blocks == 0:
            # composite = involution on the algebraic part, full primitive
            # block on the transcendental part
            pattern = IsometryPattern(
                CyclotomicMultiset.units(plus=iota_plus, minus=iota_minus),
                CyclotomicMultiset.block(11),
            )
            left = lefschetz_number(pattern)
            candidates.append(CandidateRecord(
                label="order-11 square trivial on the algebraic part",
                pattern=pattern,
                lefschetz=left,
                lefschetz_consistent=False,
                status="eliminated",
                rule=RULE_NEGATIVE_FINITE,
                detail=(
                    f"Lefschetz number {left} < 0 forces a fixed curve, but "
                    "the fixed locus lies in the involution's finite fixed set"
                ),
            ))
        else:
            # pairing the 10 primitive-block slots with the involution's
            # signs: only 4 slots of +1 exist, so between 6 and 8 of them
            # meet a -1 and become primitive 22nd roots
            slots = 10 * primitive_blocks
            low = max(0, slots - iota_plus)
            high = min(slots, iota_minus)
            multiples = [m for m in range(low, high + 1) if m % 10 == 0]
            pattern = IsometryPattern(
                square_on_algebraic, CyclotomicMultiset.block(11)
            )
            candidates.append(CandidateRecord(
                label="order-11 square with a full primitive block on the "
                      "algebraic part",
                pattern=pattern,
                lefschetz=None,
                lefschetz_consistent=None,
                status="eliminated" if not multiples else "survives",
                rule=RULE_GALOIS if not multiples else None,
                detail=(
                    f"the composite would carry between {low} and {high} "
                    "primitive 22nd-root eigenvalues on the algebraic part, "
                    "never a multiple of phi(22) = 10, so its characteristic "
                    "polynomial cannot be rational"
                ),
            ))
    return EliminationReport(
        scenario="lemma1",
        assumptions=assumptions,
        expected_lefschetz=None,
        candidates=tuple(candidates),
    )


def _replay_order22_on_small_algebraic_part() -> EliminationReport:
    """Order-22 elimination when the invariant lattice has rank 2.

    Candidates are the order-22 patterns squaring to the known order-11
    action; the expected Lefschetz number 2 (two isolated fixed points)
    filters them to one, which the local weight check then kills.
    """
    assumptions = (
        "transcendental rank is 10 or 20 (a multiple of phi(11) = 10)",
        "the transcendental part is a power of the full primitive-22 block "
        "(irreducibility; a smaller order would act trivially there)",
        "the square of the action restricts on the algebraic part to "
        "+1 x2 plus full primitive-11 blocks filling the rank",
        "some +1 eigenvector on the algebraic part (an invariant ample class)",
        "the fixed locus is exactly two isolated points, so the expected "
        "Lefschetz number is 2",
        "local weights at the two fixed points: {5, 7} and {2, 10} mod 11",
        "an invariant curve through the fixed points, if any, is preserved "
        "(moving it would span the involution-fixed algebraic part with "
        "rational curves, excluding ample classes)",
    )
    expected = 2
    candidates = []
    for transcendental_rank in (10, 20):
        t_parts = char_poly_decompositions(22, transcendental_rank, allowed={22})
        algebraic_rank = 22 - transcendental_rank
        square_blocks = (algebraic_rank - 2) // 10
        square_target = CyclotomicMultiset.from_counts(
            {1: 2, 11: square_blocks}
        )
        s_parts = [
            m for m in char_poly_decompositions(22, algebraic_rank)
            if m.power(2) == square_target and 1 in m.counts()
        ]
        for t_part in t_parts:
            for s_part in s_parts:
                pattern = IsometryPattern(s_part, t_part)
                left = lefschetz_number(pattern)
                if left != expected:
                    candidates.append(CandidateRecord(
                        label=f"transcendental rank {transcendental_rank}",
                        pattern=pattern,
                        lefschetz=left,
                        lefschetz_consistent=False,
                        status="eliminated",
                        rule=RULE_LEFSCHETZ,
                        detail=(
                            f"Lefschetz number {left} != {expected} = Euler "
                            "characteristic of the two-point fixed locus"
                        ),
                    ))
                    continue
                # Lefschetz-consistent: examine the involution (11th power)
                iota = IsometryPattern(s_part.power(11), t_part.power(11))
                curve_possible = local_curve_possible({5, 7}, {2, 10}, 11)
                candidates.append(CandidateRecord(
                    label=f"transcendental rank {transcendental_rank}",
                    pattern=pattern,
                    lefschetz=left,
                    lefschetz_consistent=True,
                    status="eliminated" if not curve_possible else "survives",
                    rule=RULE_WEIGHTS if not curve_possible else None,
                    detail=(
                        f"the 11th power acts as {iota.as_literal()} with "
                        f"Lefschetz number {lefschetz_number(iota)}, so its "
                        "fixed locus is a union of smooth curves, one of them "
                        "rational and preserved, passing through both fixed "
                        "points; no weights a in {5, 7}, b in {2, 10} have "
                        "a + b == 0 (mod 11), so no invariant curve is smooth "
                        "at both"
                    ),
                ))
    candidates.sort(key=lambda c: (c.pattern.transcendental.sort_key(),
                                   c.pattern.algebraic.sort_key()))
    return EliminationReport(
        scenario="lemma9",
        assumptions=assumptions,
        expected_lefschetz=expected,
        candidates=tuple(candidates),
    )


def _replay_order11_control() -> EliminationReport:
    """Control scenario: the order-11 action itself survives every filter."""
    assumptions = (
        "transcendental rank 10; the action there has no eigenvalue 1",
        "the algebraic part carries +1 x2 plus a full primitive block",
        "the fixed locus is exactly two isolated points, so the expected "
        "Lefschetz number is 2",
    )
    expected = 2
    candidates = []
    for t_part in char_poly_decompositions(11, 10, allowed={11}):
        s_part = CyclotomicMultiset.from_counts({1: 2, 11: 1})
        pattern = IsometryPattern(s_part, t_part)
        left = lefschetz_number(pattern)
        consistent = left == expected
        candidates.append(CandidateRecord(
            label="order-11 action",
            pattern=pattern,
            lefschetz=left,
            lefschetz_consistent=consistent,
            status="survives" if consistent else "eliminated",
            rule=None if consistent else RULE_LEFSCHETZ,
            detail="no elimination rule applies; matches two isolated "
                   "fixed points" if consistent else
                   f"Lefschetz number {left} != {expected}",
        ))
    return EliminationReport(
        scenario="control",
        assumptions=assumptions,
        expected_lefschetz=expected,
        candidates=tuple(candidates),
    )


_SCENARIOS = {
    "lemma1": _replay_order22_on_big_algebraic_part,
    "lemma9": _replay_order22_on_small_algebraic_part,
    "control": _replay_order11_control,
}


def order22_replay(scenario: str) -> EliminationReport:
    """Replay one of the named elimination scenarios; every candidate is
    listed with the rule that killed it (or its survival)."""
    try:
        runner = _SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; known: {', '.join(sorted(_SCENARIOS))}"
        ) from None
    return runner()

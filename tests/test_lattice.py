"""Lattice invariants, checked against sympy as an independent oracle:
determinant, Smith form, and the signature from the sign pattern of the
characteristic polynomial."""

import math
import random

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from helpers import congruent_gram, random_gram, random_unimodular

from k3auto.errors import LatticeError, LatticeExprError
from k3auto.lattice import (
    DivisorSolveResult,
    Lattice,
    SignaturePair,
    build_lattice,
    brute_force_even_rank2,
    determinant_and_signature,
    discriminant_group,
    divisor_class_solve,
    even_unimodular_exists,
    hyperbolic_plane,
    is_p_elementary,
    root_lattice_A,
    root_lattice_D,
    root_lattice_E,
    _bareiss,
    _component_dets,
)

BATTERY = {
    "U": hyperbolic_plane(),
    "U(11)": hyperbolic_plane(11),
    "A1": root_lattice_A(1),
    "A2": root_lattice_A(2),
    "A10": root_lattice_A(10),
    "D4": root_lattice_D(4),
    "D5": root_lattice_D(5),
    "E6": root_lattice_E(6),
    "E7": root_lattice_E(7),
    "E8": root_lattice_E(8),
    "U+A10": hyperbolic_plane() + root_lattice_A(10),
    "E8(2)": root_lattice_E(8).twist(2),
}


def oracle_det(lat: Lattice) -> int:
    return int(sympy.Matrix(lat.gram).det())


def oracle_signature(lat: Lattice) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of the eigenvalues.  A symmetric
    matrix's characteristic polynomial p has only real roots, so Descartes'
    rule of signs is exact: the sign changes of p(x) and p(-x) count the
    positive and negative roots, and the trailing zero coefficients the
    root 0."""
    x = sympy.Symbol("x")
    coeffs = [int(c) for c in sympy.Matrix(lat.gram).charpoly(x).all_coeffs()]
    n = len(coeffs) - 1  # coeffs[k] belongs to x^(n - k)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zeros = next(k for k, c in enumerate(reversed(coeffs)) if c)
    flipped = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(flipped), zeros


def oracle_invariant_factors(gram) -> tuple[int, ...]:
    factors = (abs(int(f)) for f in invariant_factors(sympy.Matrix(gram)))
    return tuple(f for f in factors if f != 1)


def det_mod_prime(gram, prime: int) -> int:
    """Gaussian elimination over Z/prime."""
    a = [[x % prime for x in row] for row in gram]
    n, det = len(a), 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % prime
        inv = pow(a[c][c], -1, prime)
        for r in range(c + 1, n):
            f = a[r][c] * inv % prime
            a[r] = [(x - f * y) % prime for x, y in zip(a[r], a[c])]
    return det % prime


DEGENERATE = {
    "zero2": Lattice(((0, 0), (0, 0))),
    "1+0": Lattice(((1, 0), (0, 0))),
    "ones3": Lattice(((1, 1, 1), (1, 1, 1), (1, 1, 1))),
    "U+0": Lattice(((0, 1, 0), (1, 0, 0), (0, 0, 0))),
    "A2+0+U": root_lattice_A(2) + Lattice(((0,),)) + hyperbolic_plane(),
    "image of A2+0+U": Lattice(congruent_gram(
        random_unimodular(random.Random(5), 5, steps=12),
        (root_lattice_A(2) + Lattice(((0,),)) + hyperbolic_plane()).gram)),
}


def test_builders_are_even_symmetric():
    for lat in BATTERY.values():
        assert lat.is_even
        assert lat.gram == tuple(zip(*lat.gram))


def test_determinant_matches_closed_forms_and_oracle():
    for n in range(1, 11):
        det, _ = determinant_and_signature(root_lattice_A(n))
        assert det == (-1) ** n * (n + 1)
    for n in range(4, 8):
        det, _ = determinant_and_signature(root_lattice_D(n))
        assert det == (-1) ** n * 4
    for n, expected in ((6, 3), (7, -2), (8, 1)):
        det, _ = determinant_and_signature(root_lattice_E(n))
        assert det == expected
    for lat in BATTERY.values():
        det, _ = determinant_and_signature(lat)
        assert det == oracle_det(lat)


def test_signature_matches_eigenvalue_oracle():
    for name, lat in BATTERY.items():
        _, sig = determinant_and_signature(lat)
        assert sig.zeros == 0, name
        assert (*sig.pair, 0) == oracle_signature(lat), name
        assert sig.positives + sig.negatives == lat.rank
    for name, lat in DEGENERATE.items():
        det, sig = determinant_and_signature(lat)
        assert det == 0, name
        assert (sig.positives, sig.negatives, sig.zeros) == oracle_signature(lat), name


def test_key_invariant_pairs():
    det, sig = determinant_and_signature(build_lattice("U"))
    assert (det, sig.pair) == (-1, (1, 1))
    det, sig = determinant_and_signature(build_lattice("U(11)"))
    assert (det, sig.pair) == (-121, (1, 1))
    det, sig = determinant_and_signature(build_lattice("U + A10"))
    assert (det, sig.pair) == (-11, (1, 11))
    det, sig = determinant_and_signature(build_lattice("E8"))
    assert (det, sig.pair) == (1, (0, 8))


def test_degenerate_gram_reports_zeros():
    det, sig = determinant_and_signature(Lattice(((0, 0), (0, 0))))
    assert det == 0 and sig == SignaturePair(0, 0, 2)
    det, sig = determinant_and_signature(Lattice(((1, 0), (0, 0))))
    assert det == 0 and sig == SignaturePair(1, 0, 1)


def test_discriminant_groups():
    assert discriminant_group(build_lattice("U(11)")).invariant_factors == (11, 11)
    assert discriminant_group(build_lattice("U + A10")).invariant_factors == (11,)
    assert discriminant_group(build_lattice("E8")).invariant_factors == ()
    assert discriminant_group(root_lattice_A(2)).invariant_factors == (3,)
    with pytest.raises(LatticeError):
        discriminant_group(Lattice(((0, 0), (0, 0))))


def test_disc_group_order_is_det_and_factors_chain():
    for lat in BATTERY.values():
        det, _ = determinant_and_signature(lat)
        group = discriminant_group(lat)
        assert group.order == abs(det)
        factors = group.invariant_factors
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_discriminant_group_matches_sympy_on_random_grams():
    rng = random.Random(301)
    for rank in range(1, 9):
        for _ in range(20):
            lat, _ = random_gram(rng, rank, span=rng.choice((2, 5, 12)))
            twist = lat.twist(rng.choice((-1, 2, 3, 11)))
            image = Lattice(congruent_gram(random_unimodular(rng, rank), lat.gram))
            for other in (lat, twist, image):
                assert (discriminant_group(other).invariant_factors
                        == oracle_invariant_factors(other.gram)), other.gram


def test_degenerate_random_grams_have_no_discriminant_group():
    rng = random.Random(302)
    for rank in range(2, 9):
        for _ in range(10):
            # a nondegenerate block plus a null direction, hidden by a
            # unimodular change of basis
            block, _ = random_gram(rng, rank - 1)
            lat = Lattice(congruent_gram(random_unimodular(rng, rank, steps=12),
                                         (block + Lattice(((0,),))).gram))
            det, sig = determinant_and_signature(lat)
            assert det == 0 == sympy.Matrix(lat.gram).det()
            assert (sig.positives, sig.negatives, sig.zeros) == oracle_signature(lat)
            with pytest.raises(LatticeError):
                discriminant_group(lat)


def scrambled_orthogonal_sum(rng):
    """A direct sum of 1-5 blocks (random Gram matrices of rank 1-4, U(m)
    or a zero 1x1 block), its rows and columns permuted alike, so that the
    summands sit on non-contiguous index sets."""
    blocks = []
    for _ in range(rng.randint(1, 5)):
        draw = rng.random()
        if draw < 0.15:
            blocks.append(hyperbolic_plane(rng.choice((1, -2, 11))))
        elif draw < 0.25:
            blocks.append(Lattice(((0,),)))
        else:
            blocks.append(random_gram(rng, rng.randint(1, 4), span=rng.choice((2, 5)))[0])
    gram = blocks[0].direct_sum(*blocks[1:]).gram
    perm = list(range(len(gram)))
    rng.shuffle(perm)
    return Lattice(tuple(tuple(gram[r][c] for c in perm) for r in perm))


def test_permuted_orthogonal_sums_match_oracle():
    rng = random.Random(1313)
    degenerate = 0
    for _ in range(40):
        lat = scrambled_orthogonal_sum(rng)
        det, sig = determinant_and_signature(lat)
        assert det == sympy.Matrix(lat.gram).det(), lat.gram
        assert (sig.positives, sig.negatives, sig.zeros) == oracle_signature(lat), lat.gram
        if det == 0:
            degenerate += 1
            with pytest.raises(LatticeError):
                discriminant_group(lat)
        else:
            assert (discriminant_group(lat).invariant_factors
                    == oracle_invariant_factors(lat.gram)), lat.gram
    assert degenerate  # some draws hold a zero block


def test_orthogonal_sums_at_the_rank_cap():
    e8s = build_lattice(" + ".join(["E8"] * 32))
    assert determinant_and_signature(e8s) == (1, SignaturePair(0, 256))
    assert discriminant_group(e8s).invariant_factors == ()
    # 256 factors of 11 from 128 components: the gcd/lcm sweep runs over all
    u11s = build_lattice(" + ".join(["U(11)"] * 128))
    assert determinant_and_signature(u11s) == (121 ** 128, SignaturePair(128, 128))
    assert discriminant_group(u11s).invariant_factors == (11,) * 256


def test_dense_rank48_gram():
    # dense random Gram matrices of rank >= 44 used to stall the
    # rational elimination and sympy's Smith form
    rng = random.Random(48)
    n = 48
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-5, 5)
    lat = Lattice(tuple(tuple(row) for row in rows))
    det, sig = determinant_and_signature(lat)
    prime = 2**127 - 1
    assert det != 0
    assert det % prime == det_mod_prime(lat.gram, prime)
    assert sig.positives + sig.negatives == n and sig.zeros == 0
    group = discriminant_group(lat)
    assert math.prod(group.invariant_factors) == abs(det)
    image = Lattice(congruent_gram(random_unimodular(rng, n, steps=24), lat.gram))
    assert discriminant_group(image) == group
    assert determinant_and_signature(image) == (det, sig)


def test_p_elementary():
    assert is_p_elementary(build_lattice("U + A10"), 11)
    assert is_p_elementary(build_lattice("U(11)"), 11)
    assert is_p_elementary(build_lattice("U"), 11)  # trivial group
    assert not is_p_elementary(root_lattice_A(2), 11)
    assert not is_p_elementary(root_lattice_E(8).twist(2), 11)
    # no component's |det| is a power of 6 (D4 has 4), but their product 6^4
    # is: the group is (Z/6)^4
    assert is_p_elementary(build_lattice("D4 + D4(3)"), 6)
    # |det| a power of 11, group not elementary: factors (121, 121) and (121,)
    assert not is_p_elementary(build_lattice("U(121)"), 11)
    assert not is_p_elementary(build_lattice("A120"), 11)
    assert is_p_elementary(build_lattice("U(11) + E8(11) + A10"), 11)
    with pytest.raises(LatticeError):
        is_p_elementary(Lattice(((2, 0), (0, 0))), 11)


def twisted_block_sum(rng):
    """A permuted direct sum of 1-4 blocks, each U, A1, A2, D4, A10 or a
    random rank 1-3 Gram matrix twisted by 1, 2, 3, 6 or 11, or, rarely, a
    zero 1x1 block; returns the lattice and the blocks' |det|."""
    blocks = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.05:
            blocks.append(Lattice(((0,),)))
            continue
        base = rng.choice((hyperbolic_plane(), root_lattice_A(1), root_lattice_A(2),
                           root_lattice_D(4), root_lattice_A(10), None))
        if base is None:
            base = random_gram(rng, rng.randint(1, 3), span=2)[0]
        blocks.append(base.twist(rng.choice((1, 2, 3, 6, 11))))
    gram = blocks[0].direct_sum(*blocks[1:]).gram
    perm = list(range(len(gram)))
    rng.shuffle(perm)
    lat = Lattice(tuple(tuple(gram[r][c] for c in perm) for r in perm))
    return lat, [abs(determinant_and_signature(b)[0]) for b in blocks]


def is_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_p_elementary_matches_oracle():
    rng = random.Random(1414)
    elementary = cross = power_not_elementary = degenerate = 0
    for k in range(320):
        if k % 4:
            lat, dets = twisted_block_sum(rng)
        else:
            lat, det = random_gram(rng, rng.randint(1, 5), span=rng.choice((2, 5)))
            dets = [abs(det)]
        if 0 in dets:
            degenerate += 1
            with pytest.raises(LatticeError):
                is_p_elementary(lat, 11)
            continue
        factors = oracle_invariant_factors(lat.gram)
        for p in (2, 3, 4, 6, 11):
            expected = all(f == p for f in factors)
            assert is_p_elementary(lat, p) == expected, (lat.gram, p)
            elementary += expected and bool(factors)
            # elementary although some block's |det| is not a power of p
            cross += expected and not all(is_power(d, p) for d in dets)
            power_not_elementary += not expected and is_power(math.prod(dets), p)
    # every branch is reached: elementary, |det| a power of p but the group
    # not elementary, and a degenerate block
    assert elementary and cross and power_not_elementary and degenerate


def sparse_gram(rng, rank, density):
    """A symmetric Gram matrix whose entries are nonzero with probability
    `density`, so that pivot columns hold zeros; may be degenerate."""
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
    return Lattice(tuple(tuple(row) for row in rows))


def tridiagonal_gram(rng, rank):
    """One orthogonal component with zeros off its three middle diagonals;
    a zero diagonal entry here and there makes some of them degenerate."""
    rows = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        rows[i][i] = rng.choice((-3, -2, 0, 2))
        if i:
            rows[i][i - 1] = rows[i - 1][i] = rng.choice((-1, 1, 2))
    return Lattice(tuple(tuple(row) for row in rows))


def test_bareiss_on_sparse_grams_matches_oracle():
    rng = random.Random(1515)
    degenerate = 0
    for k in range(60):
        rank = rng.randint(2, 12)
        if k % 3:
            lat = sparse_gram(rng, rank, rng.choice((0.2, 0.3, 0.4, 0.5)))
        else:
            lat = tridiagonal_gram(rng, rank)
        det, sig = determinant_and_signature(lat)
        assert det == sympy.Matrix(lat.gram).det(), lat.gram
        assert (sig.positives, sig.negatives, sig.zeros) == oracle_signature(lat), lat.gram
        degenerate += det == 0
    assert 0 < degenerate < 60


def graph_gram(rng, lat, diagonal):
    """The graph of `lat`'s nonzero off-diagonal entries, with random edge
    weights and a diagonal drawn from `diagonal`."""
    n = lat.rank
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(diagonal)
        for j in range(i + 1, n):
            if lat.gram[i][j]:
                rows[i][j] = rows[j][i] = rng.choice((-2, -1, 1, 2))
    return Lattice(tuple(tuple(row) for row in rows))


def test_bareiss_deferred_rows_match_oracle():
    # The elimination leaves a row alone while the pivot row has a zero in
    # its column, and brings it to scale only when it next reads it.  In
    # cycles and D_n and E_n trees with random weights, half of them with
    # their nodes shuffled, rows wait over several pivots, and are behind
    # in scale when they next become the pivot row, are eliminated again,
    # or meet the swap-or-add branch of a zero diagonal; the images below
    # reach all three as well.  Floor division hides an inexact step, so
    # only an oracle catches it.
    rng = random.Random(1616)
    zero_pivot = 0
    for k in range(48):
        rank = rng.randint(4, 12)
        shape = (root_lattice_A(rank), root_lattice_D(rank),
                 root_lattice_E(rng.choice((6, 7, 8))))[k % 3]
        if k % 3 == 0:  # a path closed into a cycle by one more edge
            rows = [list(row) for row in shape.gram]
            rows[0][-1] = rows[-1][0] = 1
            shape = Lattice(tuple(tuple(row) for row in rows))
        lat = graph_gram(rng, shape, (-3, -2, 2, 3) if k % 2 else (-2, 0, 0, 2))
        if k % 4 > 1:  # the same graph with its nodes in random order
            perm = rng.sample(range(lat.rank), lat.rank)
            lat = Lattice(tuple(tuple(lat.gram[r][c] for c in perm) for r in perm))
        det, sig = determinant_and_signature(lat)
        assert det == oracle_det(lat), lat.gram
        assert (sig.positives, sig.negatives, sig.zeros) == oracle_signature(lat), lat.gram
        # a vanishing leading minor: the elimination reaches the zero-pivot branch
        zero_pivot += any(not det_mod_prime([row[:m] for row in lat.gram[:m]], 2**61 - 1)
                          for m in range(1, lat.rank))
    # unimodular images of root-lattice sums, the shape of lattice-batch's
    # image ops: the same invariants as their source
    for _ in range(24):
        names = rng.sample(("A2", "A4", "D4", "D5", "E6", "U", "U(11)", "A1(3)"), 3)
        source = build_lattice(" + ".join(names))
        image = Lattice(congruent_gram(
            random_unimodular(rng, source.rank, steps=rng.randint(4, 16)), source.gram))
        det, sig = determinant_and_signature(image)
        assert det == oracle_det(source), image.gram
        assert (sig.positives, sig.negatives, sig.zeros) == oracle_signature(source), image.gram
        assert (discriminant_group(image).invariant_factors
                == oracle_invariant_factors(source.gram)), image.gram
    assert zero_pivot


def test_smith_form_mod_gcd_matches_oracle():
    # Each component is reduced modulo g = gcd(|det|, M_{n-1}), the largest
    # factor rebuilt from |det|, and a component with g = 1 is cyclic with
    # no Smith form at all.  Sparse Grams of rank 1-8, zeros on part of the
    # diagonal, twisted by 1, 2, 3 or 11, reach every case: cyclic
    # components of rank > 1, g > 1, a vanishing leading minor (the
    # elimination's zero-pivot branch) and 11-elementary lattices.
    rng = random.Random(1717)
    cyclic = reduced = zero_pivot = elementary = 0
    for _ in range(400):
        lat = sparse_gram(rng, rng.randint(1, 8), rng.choice((0.45, 0.55)))
        lat = lat.twist(rng.choice((1, 2, 3, 11)))
        try:
            triples = _component_dets(lat.gram)
        except LatticeError:  # a degenerate component
            with pytest.raises(LatticeError):
                discriminant_group(lat)
            continue
        factors = oracle_invariant_factors(lat.gram)
        assert discriminant_group(lat).invariant_factors == factors, lat.gram
        expected = all(f == 11 for f in factors)
        assert is_p_elementary(lat, 11) == expected, lat.gram
        elementary += expected and bool(factors)
        for block, _, g in triples:
            cyclic += g == 1 and len(block) > 1
            reduced += g > 1
            zero_pivot += any(not det_mod_prime([row[:m] for row in block[:m]], 2**61 - 1)
                              for m in range(1, len(block)))
    assert cyclic and reduced and zero_pivot and elementary


def test_bareiss_minor_bounds_the_largest_factor():
    # The pivot before the last is M_{n-1}, the (n, n) entry of the adjugate
    # of a matrix congruent to the block, so |det| / gcd(|det|, M_{n-1})
    # divides the largest invariant factor.  A 1x1 block has M_0 = 1.
    assert _bareiss([[-7]])[:2] == (-7, 1)
    rng = random.Random(1818)
    grams = [build_lattice("U(121)").gram, build_lattice("A2(3)").gram]
    grams += [random_gram(rng, rng.randint(2, 6))[0].gram for _ in range(30)]
    grams += [sparse_gram(rng, rng.randint(2, 8), 0.5).gram for _ in range(60)]
    for gram in grams:
        det, minor, _ = _bareiss([list(row) for row in gram])
        if det:
            largest = max(oracle_invariant_factors(gram), default=1)
            assert largest % (abs(det) // math.gcd(det, minor)) == 0, gram


def test_even_unimodular_mod8_rule():
    assert even_unimodular_exists(1, 1)
    assert not even_unimodular_exists(1, 11)
    assert even_unimodular_exists(1, 17)
    assert even_unimodular_exists(0, 8)
    assert even_unimodular_exists(1, 9)
    assert not even_unimodular_exists(2, 11)
    with pytest.raises(LatticeError):
        even_unimodular_exists(0, 0)


def test_lattice_expression_grammar():
    assert build_lattice("U").gram == ((0, 1), (1, 0))
    assert build_lattice("U(11)").gram == ((0, 11), (11, 0))
    assert build_lattice("A(10)").gram == build_lattice("A10").gram
    assert build_lattice("U + A10").rank == 12
    assert build_lattice("(U + A2)(3)").gram == (build_lattice("U + A2").twist(3)).gram
    assert build_lattice("A1(2)").gram == ((-4,),)
    assert build_lattice("E(8)").rank == 8
    assert build_lattice(" A 10 ").gram == build_lattice("A10").gram
    assert build_lattice("U(-11)").gram == ((0, -11), (-11, 0))
    assert build_lattice("(" * 100 + "U" + ")" * 100).gram == ((0, 1), (1, 0))
    assert build_lattice("A128 + A128").rank == 256
    for bad in ("B3", "U +", "A", "E9", "D2", "U(0)", "U + A10 junk", "A(2",
                "U(- 11)", "A10 2", "U11", "A_10", "U # A10",
                "A257", "A128 + A128 + U", "(" * 101 + "U" + ")" * 101,
                # INT and NAME are ASCII only
                "A²", "A١٠", "U(١١)", "Aµ", "U + E８"):
        with pytest.raises(LatticeExprError):
            build_lattice(bad)


def test_sum_is_built_once(monkeypatch):
    ranks = []
    build = Lattice.__init__

    def record(self, gram):
        build(self, gram)
        ranks.append(self.rank)

    monkeypatch.setattr(Lattice, "__init__", record)
    lat = build_lattice("U + (A10 + E8) + D4")
    # the four summands, then the sum: no intermediate sum is built
    assert ranks == [2, 10, 8, 4, 24]
    monkeypatch.undo()
    parts = (hyperbolic_plane(), root_lattice_A(10), root_lattice_E(8), root_lattice_D(4))
    assert lat == parts[0] + parts[1] + parts[2] + parts[3]
    assert parts[0].direct_sum(*parts[1:]) == lat


def test_lattice_record_contract():
    lat, twin = hyperbolic_plane(11), Lattice([[0, 11], [11, 0]])
    assert lat == twin and hash(lat) == hash(twin)
    assert lat != (((0, 11), (11, 0)),) and lat != hyperbolic_plane(-11)
    with pytest.raises(AttributeError):
        lat.gram = ((0, 1), (1, 0))
    with pytest.raises(AttributeError):
        lat.label = "U(11)"
    assert repr(lat) == "Lattice(gram=((0, 11), (11, 0)))"


def test_gram_validation():
    with pytest.raises(LatticeError):
        Lattice(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(LatticeError):
        Lattice(((0, 1),))  # not square


def test_divisor_solve_section_uniqueness():
    # basis (C, F) with C.C = -2, C.F = 1, F.F = 0
    lat = Lattice(((-2, 1), (1, 0)))
    res = divisor_class_solve(lat, [((0, 1), 1)], norm=-2)
    assert res == DivisorSolveResult(((1, 0),), True)


def test_divisor_solve_empty_contradiction():
    lat = Lattice(((-2, 1), (1, 0)))
    res = divisor_class_solve(lat, [((0, 1), 0)], norm=-22)
    assert res.solutions == () and res.complete


def test_divisor_solve_infinite_line_falls_back_to_box():
    lat = Lattice(((-2, 1), (1, 0)))
    res = divisor_class_solve(lat, [((0, 1), 0)], norm=0, bound=3)
    assert not res.complete
    assert res.solutions == tuple(sorted((0, k) for k in range(-3, 4)))


def test_divisor_solve_two_constraints_and_box_path():
    lat = Lattice(((-2, 1), (1, 0)))
    res = divisor_class_solve(lat, [((0, 1), 1), ((1, 0), -2)], norm=-2)
    assert res.complete and res.solutions == ((1, 0),)
    # an inconsistent pair of linear constraints certifies emptiness
    res = divisor_class_solve(lat, [((0, 1), 1), ((1, 0), 0)], norm=-2)
    assert res.complete and res.solutions == ()
    res3 = divisor_class_solve(root_lattice_A(3), [((1, 0, 0), -2)], norm=-2, bound=2)
    assert not res3.complete
    for v in res3.solutions:
        q = sum(v[i] * root_lattice_A(3).gram[i][j] * v[j] for i in range(3) for j in range(3))
        assert q == -2


def test_brute_force_even_rank2():
    found = brute_force_even_rank2(-121, 12)
    assert Lattice(((0, 11), (11, 0))) in found
    assert Lattice(((-22, 11), (11, 0))) in found
    for lat in found:
        det, _ = determinant_and_signature(lat)
        assert det == -121 and lat.is_even
    # determinant of an even rank-2 form is 0 or -1 mod 4
    for target in (-11, 2, 5):
        assert brute_force_even_rank2(target, 8) == []
    assert brute_force_even_rank2(-4, 3) != []

"""Seeded randomized invariants across the whole library.

Smaller cousins of the large acceptance-suite runs; every loop is driven
by a fixed seed so a failure is reproducible.
"""

import random

import sympy
from helpers import (
    CONTEXTS,
    QI,
    congruent_gram,
    divides,
    random_coefficient,
    random_gram,
    random_model,
    random_nonzero_poly,
    random_poly,
    random_unimodular,
    reversed_to,
    sympy_domain,
    sympy_poly,
)

from k3auto import ellsurf, polyfield
from k3auto.ellsurf import (
    WeierstrassModel,
    _classify,
    analyze_fibers,
    discriminant,
    fiber_euler_number,
    flip_model,
)
from k3auto.errors import InvalidModelError
from k3auto.isometry import CyclotomicMultiset
from k3auto.lattice import (
    Lattice,
    determinant_and_signature,
    discriminant_group,
)
from k3auto.parsing import parse_poly
from k3auto.polyfield import (
    OMEGA,
    Place,
    Poly,
    is_squarefree,
    poly_gcd,
    squarefree_decompose,
    valuation,
)


def with_zero_coefficient_variants(m):
    """m, then the models with a = 0 and with b = 0 where those exist."""
    zero = Poly.zero(m.context)
    variants = [m]
    if not m.b.is_zero:
        variants.append(WeierstrassModel(zero, m.b))
    if not m.a.is_zero:
        variants.append(WeierstrassModel(m.a, zero))
    return variants


def test_parse_str_round_trip():
    rng = random.Random(101)
    for _ in range(300):
        context = rng.choice(CONTEXTS)
        p = random_poly(rng, context, max_degree=7)
        assert parse_poly(str(p), context) == p


def test_squarefree_reassembly():
    rng = random.Random(102)
    for _ in range(250):
        context = rng.choice(CONTEXTS)
        p = random_nonzero_poly(rng, context, max_degree=7)
        if p.degree == 0:
            continue  # constants have no squarefree decomposition
        exponent = rng.randint(1, 3)
        q = p ** exponent  # force interesting multiplicities sometimes
        content, factors = squarefree_decompose(q)
        rebuilt = Poly.constant(context, 1).scale(content)
        for factor, multiplicity in factors:
            assert factor.monic() == factor
            rebuilt = rebuilt * factor ** multiplicity
        assert rebuilt == q
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert poly_gcd(factors[i][0], factors[j][0]).degree == 0


def test_gcd_divides_both_arguments():
    rng = random.Random(103)
    for _ in range(250):
        context = rng.choice(CONTEXTS)
        common = random_nonzero_poly(rng, context, max_degree=3)
        p = common * random_nonzero_poly(rng, context, max_degree=4)
        q = common * random_nonzero_poly(rng, context, max_degree=4)
        g = poly_gcd(p, q)
        assert g == g.monic()
        assert divides(g, p) and divides(g, q)
        assert divides(common.monic(), g)


def test_lattice_invariants_are_congruence_invariant():
    rng = random.Random(104)
    for _ in range(150):
        rank = rng.randint(1, 5)
        lat, det = random_gram(rng, rank)
        u = random_unimodular(rng, rank)
        other = Lattice(congruent_gram(u, lat.gram))
        det2, sig2 = determinant_and_signature(other)
        _, sig = determinant_and_signature(lat)
        assert det2 == det
        assert sig2.pair == sig.pair
        assert (discriminant_group(other).invariant_factors
                == discriminant_group(lat).invariant_factors)


def test_discriminant_group_order_equals_det():
    rng = random.Random(105)
    for _ in range(200):
        rank = rng.randint(1, 5)
        lat, det = random_gram(rng, rank)
        assert discriminant_group(lat).order == abs(det)


def test_flip_reverses_discriminant():
    rng = random.Random(106)
    for _ in range(120):
        context = rng.choice(CONTEXTS)
        for m in with_zero_coefficient_variants(random_model(rng, context, max_degree=7)):
            flipped = flip_model(m)
            assert discriminant(flipped) == reversed_to(discriminant(m), 12 * m.k)
            # the fiber at infinity, read from degrees, is the flip's at t = 0
            origin = Place(Poly.monomial(context, 1))
            at_origin = [valuation(p, origin)
                         for p in (flipped.a, flipped.b, discriminant(flipped))]
            assert analyze_fibers(m).fibers[-1] == _classify(Place(None), *at_origin)


def test_fiber_euler_number_is_the_minimal_discriminant_valuation(monkeypatch):
    rng = random.Random(109)
    models = []
    for _ in range(40):
        m = random_model(rng, rng.choice(CONTEXTS), max_degree=5)
        models += with_zero_coefficient_variants(m)
        # a and b times g^4 and g^6 for a linear g: one (4, 6, 12)-step at g
        g = Poly.make(m.context, [random_coefficient(rng, m.context), 1])
        models.append(WeierstrassModel(m.a * g ** 4, m.b * g ** 6))
    calls = []
    monkeypatch.setattr(ellsurf, "fiber_euler_number", calls.append)
    fibers = [(f.kodaira_type, f.euler, f.minimalization_steps)
              for m in models for f in analyze_fibers(m).fibers]
    monkeypatch.undo()
    assert calls == []
    assert any(steps for _, _, steps in fibers)
    for symbol, euler, _ in fibers:
        assert euler == fiber_euler_number(symbol)


def test_euler_bookkeeping_on_random_models():
    rng = random.Random(107)
    for _ in range(150):
        context = rng.choice(CONTEXTS)
        for m in with_zero_coefficient_variants(random_model(rng, context, max_degree=6)):
            analysis = analyze_fibers(m)
            withdrawn = sum(
                f.degree * f.minimalization_steps for f in analysis.fibers
            )
            assert analysis.euler_total + 12 * withdrawn == 12 * analysis.k
            if analysis.relatively_minimal:
                assert analysis.euler_total == analysis.expected_euler
            # finite places are monic, squarefree and pairwise coprime
            generators = [f.place.generator for f in analysis.fibers[:-1]]
            for i, g in enumerate(generators):
                assert g.leading_coefficient() == Poly.constant(context, 1)
                assert is_squarefree(g)
                assert all(poly_gcd(g, h).is_constant for h in generators[i + 1:])
            # finite valuations from the exponent matrix match valuation()
            for f in analysis.fibers[:-1]:
                assert (f.v_a, f.v_b, f.v_delta) == tuple(
                    valuation(p, f.place) for p in (m.a, m.b, discriminant(m))
                )


def test_basis_places_are_not_checked_again(monkeypatch):
    # the basis's generators are squarefree by construction; only
    # valuation() checks a place, and analyze_fibers never calls it
    def refuse(_p):
        raise AssertionError("is_squarefree called")

    rng = random.Random(108)
    models = [random_model(rng, rng.choice(CONTEXTS), max_degree=6) for _ in range(30)]
    monkeypatch.setattr(polyfield, "is_squarefree", refuse)
    for m in models:
        for variant in with_zero_coefficient_variants(m):
            analyze_fibers(variant)  # raises at the first check of a place


def test_fiber_analysis_runs_without_scalar_arithmetic(monkeypatch):
    # polynomials are integer vectors: analysing a model, nontrivial gcds
    # and its report included, never reads a coefficient out as Fractions
    def refuse(*_args):
        raise AssertionError("coefficient read out")

    rng = random.Random(110)
    models = [variant for _ in range(30)
              for variant in with_zero_coefficient_variants(
                  random_model(rng, rng.choice(CONTEXTS), max_degree=6))]
    reports = [analyze_fibers(m).as_report() for m in models]
    monkeypatch.setattr(Poly, "coefficient", refuse)
    monkeypatch.setattr(polyfield, "Coefficient", refuse)
    assert [analyze_fibers(m).as_report() for m in models] == reports


def _sympy_valuation(p, factor):
    if p.is_zero:
        return OMEGA
    v = 0
    while True:
        q, r = p.div(factor)
        if not r.is_zero:
            return v
        v, p = v + 1, q


def _shared_factor_model(rng, context):
    """a and b built from three small random factors, so Delta has
    repeated factors and the basis splits it into several places."""
    while True:
        f, g, h = (random_nonzero_poly(rng, context, max_degree=2, span=3) for _ in range(3))
        a = f ** rng.randint(0, 3) * g ** rng.randint(0, 2)
        b = f ** rng.randint(0, 3) * g ** rng.randint(0, 1) * h ** rng.randint(0, 2)
        try:
            c = Poly.make(context, [random_coefficient(rng, context, 3)])
            return WeierstrassModel(a if c.is_zero else a.scale(c), b)
        except InvalidModelError:
            continue


def test_fiber_places_match_sympy_factorization():
    # sympy factors Delta into irreducibles over the ground field (what
    # factor_list(..., extension=sqrt(d)) does); each factor must divide
    # exactly one reported place and carry that place's valuations, and a
    # place on Delta must be the product of the factors it holds
    rng = random.Random(110)
    for context in CONTEXTS:
        domain = sympy_domain(context)
        for i in range(12):
            m = (_shared_factor_model if i % 2 else random_model)(rng, context)
            finite = analyze_fibers(m).fibers[:-1]
            a, b, delta = (sympy_poly(p, domain) for p in (m.a, m.b, m.delta))
            places = [sympy_poly(f.place.generator, domain) for f in finite]
            held = [[] for _ in finite]
            for factor, _ in delta.factor_list()[1]:
                hits = [j for j, g in enumerate(places) if g.rem(factor).is_zero]
                assert len(hits) == 1, (m, factor)
                fiber = finite[hits[0]]
                assert (fiber.v_a, fiber.v_b, fiber.v_delta) == tuple(
                    _sympy_valuation(p, factor) for p in (a, b, delta)), (m, factor)
                held[hits[0]].append(factor.monic())
            for fiber, g, factors in zip(finite, places, held):
                if fiber.v_delta:
                    assert g == sympy.prod(factors), (m, fiber)


def _basis_places(m):
    """(generator, v_a, v_b, v_Delta) of every finite place from the general
    gcd-free basis of the nonzero ones of {a, b, Delta}, OMEGA for a zero
    a or b: the reference for the branches of ``_finite_places``."""
    polys = (m.a, m.b, m.delta)
    if all(p.is_constant for p in polys):
        return []
    basis, exponents = polyfield.gcdfree_basis([p for p in polys if not p.is_zero])
    rows = iter(exponents)
    columns = [[OMEGA] * len(basis) if p.is_zero else next(rows) for p in polys]
    return list(zip(basis, *columns))


def _sharing_model(rng, context):
    """a and b sharing powers of h1 and h2, random of degree 1 and of degree
    1 or 2.  Half of the models have further factors of several
    multiplicities on each side; the other half are a = G^2 * h1^r * f1 and
    b = G^3 * h2^s * f2 for G = h1^i * h2^j, i != j, so that g = gcd(a, b)
    has factors of two multiplicities, b/g meets g at h2, and a/g meets it
    at h1 when r > i."""
    while True:
        h1, h2 = (random_nonzero_poly(rng, context, max_degree=k, span=4) for k in (1, 2))
        if h1.degree != 1 or h2.is_constant:
            continue
        f1, f2 = (random_nonzero_poly(rng, context, max_degree=2, span=4) for _ in range(2))
        if rng.random() < 0.5:
            a = h1 ** rng.randint(1, 4) * h2 ** rng.randint(0, 2) * f1 ** rng.randint(0, 2)
            b = h1 ** rng.randint(1, 3) * h2 ** rng.randint(1, 2) * f2 ** rng.randint(0, 3)
        else:
            i, j = rng.sample((1, 2), 2)
            shared = h1 ** i * h2 ** j
            a = shared ** 2 * h1 ** rng.randint(0, 2) * f1
            b = shared ** 3 * h2 ** rng.randint(0, 1) * f2
        try:
            return WeierstrassModel(a, b)
        except InvalidModelError:
            continue


def test_fiber_place_branches_match_the_general_basis(monkeypatch):
    # Delta = 4a^3 + 27b^2 puts every place shared by two of {a, b, Delta}
    # on g = gcd(a, b), and Delta = g^2 * E with E = 4g(a/g)^3 + 27(b/g)^2,
    # so the fiber analysis reads the places off Yun factors and splits only
    # g's; each branch must give the general basis's places, rows and order
    # without building that basis
    basis_calls = []
    basis = polyfield.gcdfree_basis
    monkeypatch.setattr(polyfield, "gcdfree_basis",
                        lambda polys: basis_calls.append(polys) or basis(polys))
    rng = random.Random(1971)
    seen, meets = set(), set()
    for context in (*CONTEXTS, QI):
        for i in range(16):
            m = (_sharing_model if i % 2 else random_model)(rng, context)
            for variant in with_zero_coefficient_variants(m):
                a, b = variant.a, variant.b
                g = None if a.is_zero or b.is_zero else poly_gcd(a, b)
                branch = ("a = 0" if a.is_zero else "b = 0" if b.is_zero
                          else "g = 1" if g.is_constant else "g nonconstant")
                seen.add(branch)
                if branch == "g nonconstant":
                    for name, p in (("a/g", a // g), ("b/g", b // g)):
                        if not poly_gcd(p, g).is_constant:
                            meets.add((name, context))
                basis_calls.clear()
                finite = analyze_fibers(variant).fibers[:-1]
                assert basis_calls == [], branch
                assert [(f.place.generator, f.v_a, f.v_b, f.v_delta) for f in finite] == \
                    _basis_places(variant), (variant, branch)
    assert seen == {"a = 0", "b = 0", "g = 1", "g nonconstant"}
    assert meets == {(name, context) for name in ("a/g", "b/g") for context in (*CONTEXTS, QI)}


def test_rescaling_leaves_analysis_unchanged():
    rng = random.Random(108)
    scales = (2, -1, 3, -5)
    for _ in range(150):
        context = rng.choice(CONTEXTS)
        m = random_model(rng, context, max_degree=6)
        lam = Poly.constant(context, rng.choice(scales))
        lam4 = lam * lam * lam * lam
        lam6 = lam4 * lam * lam
        scaled = WeierstrassModel(m.a.scale(lam4), m.b.scale(lam6))
        assert analyze_fibers(scaled).as_report() == analyze_fibers(m).as_report()


def test_multiset_power_composes():
    rng = random.Random(109)
    for _ in range(200):
        counts = {}
        for _ in range(rng.randint(1, 4)):
            counts[rng.randint(1, 24)] = rng.randint(1, 3)
        ms = CyclotomicMultiset.from_counts(counts)
        e1, e2 = rng.randint(1, 10), rng.randint(1, 10)
        assert ms.power(e1).power(e2) == ms.power(e1 * e2)

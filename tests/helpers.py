"""Shared random generators for the property and acceptance suites, the
sympy oracles and the loader of the benchmark's modules for the golden
and tracer tests.

Everything is driven by an explicit ``random.Random`` instance so failures
reproduce exactly.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from k3auto.ellsurf import WeierstrassModel
from k3auto.errors import InvalidModelError
from k3auto.polyfield import FieldContext, Poly, RATIONALS

QW3 = FieldContext(d=-3)
QR5 = FieldContext(d=5)
QI = FieldContext(d=-1)  # -1 is a square modulo no prime = 3 mod 4
CONTEXTS = (RATIONALS, QW3, QR5)


def random_coefficient(rng, context, span=6):
    """A random x + y*w as the (x, y) pair that ``Poly.make`` takes."""
    x = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    y = 0
    if context.is_quadratic and rng.random() < 0.5:
        y = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    return x, y


def random_poly(rng, context, max_degree=6, span=6):
    degree = rng.randint(0, max_degree)
    coeffs = []
    for _ in range(degree + 1):
        if rng.random() < 0.3:  # keep the polynomials sparse
            coeffs.append(0)
        else:
            coeffs.append(random_coefficient(rng, context, span))
    return Poly.make(context, coeffs)


def random_nonzero_poly(rng, context, max_degree=6, span=6):
    while True:
        p = random_poly(rng, context, max_degree, span)
        if not p.is_zero:
            return p


def random_model(rng, context=RATIONALS, max_degree=8):
    """Random Weierstrass model with a not-identically-zero discriminant."""
    while True:
        a = random_poly(rng, context, max_degree)
        b = random_poly(rng, context, max_degree)
        try:
            return WeierstrassModel(a, b)
        except InvalidModelError:
            continue


def random_gram(rng, rank, span=5):
    """Random symmetric integer matrix with nonzero determinant."""
    from k3auto.lattice import Lattice, determinant_and_signature

    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                rows[i][j] = rows[j][i] = rng.randint(-span, span)
        lat = Lattice(tuple(tuple(r) for r in rows))
        det, _ = determinant_and_signature(lat)
        if det != 0:
            return lat, det


def random_unimodular(rng, n, steps=8):
    """Random element of GL_n(Z) as a product of elementary matrices."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randint(0, 2)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:  # row_i += c * row_j
            c = rng.randint(-2, 2)
            for col in range(n):
                u[i][col] += c * u[j][col]
        elif kind == 1 and i != j:  # swap
            u[i], u[j] = u[j], u[i]
        else:  # negate a row
            u[i] = [-x for x in u[i]]
    return u


def congruent_gram(u, gram):
    """u^T * gram * u as a tuple-of-tuples."""
    n = len(u)
    gu = [[sum(gram[i][k] * u[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return tuple(
        tuple(sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def reversed_to(p, degree):
    """Coefficient reversal of p inside the window [0, degree]."""
    padded = [p.coefficient(i) for i in range(degree + 1)]
    return Poly.make(p.context, padded[::-1])


def sympy_domain(context):
    """sympy's QQ, or QQ<sqrt(d)> for a quadratic context."""
    import sympy  # only the oracle tests need it

    if context.is_quadratic:
        return sympy.QQ.algebraic_field(sympy.sqrt(context.d))
    return sympy.QQ


def sympy_poly(p, domain):
    """p as a sympy Poly over QQ or QQ<sqrt(d)>, built from domain elements:
    converting an expression in sqrt(d) made the sympy factorization test
    ~8x slower."""
    import sympy

    def coeff(c):
        x, y = (sympy.QQ(f.numerator, f.denominator) for f in (c.x, c.y))
        return x if domain == sympy.QQ else domain([y, x])
    coeffs = [coeff(c) for c in reversed(p.coefficients)] or [domain.zero]
    return sympy.Poly.from_list(coeffs, sympy.Symbol("t"), domain=domain)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem):
    """The benchmark's ``perfbench/<stem>.py``, loaded read-only (once), so a
    test checks the same pool, ops, digests and metrics as the benchmark."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]

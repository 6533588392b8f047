"""Small text grammars: polynomials and eigenvalue-pattern literals.

Polynomial grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom ('^' INT)*      (negated when the '-' are odd)
    atom   := '(' expr ')' | INT ['/' INT] | NAME

`t` is the variable, `w` the quadratic generator (w^2 = d, only valid in a
quadratic context); any other NAME must be supplied through `bindings`,
each a Poly of the parser's context, an int or a Fraction.
No subexpression may have a degree, and no exponent may be, above
`MAX_DEGREE`, and no power, product or parsed polynomial coefficients of
more than `MAX_COEFF_BITS` bits (as ``_bits`` counts them).  The parser
works on the integer vectors: a sum is added once over its common
denominator, `t^k` is built as a monomial, a product with t^k as a shift,
one with w as a swap of the parts and one with a constant factor as a
scaling.

Eigenvalue-pattern grammar:

    pattern  := 'S' ':' multiset ';' 'T' ':' multiset
    multiset := '[' (item (',' item)*)? ']'
    item     := ('1' | '-1' | 'Phi' '(' INT ')') ('*' INT)?

Both grammars, and the lattice expressions of `lattice`, share one lexer.
Its tokens are INT = [0-9]+, NAME = [A-Za-z_][A-Za-z0-9_]* and one of
`+-*^/()[],;:`; any other character but whitespace (a digit like '²' too)
is an error, as is an INT of more than `MAX_LITERAL_DIGITS` digits or
input nested deeper than `MAX_NESTING` parentheses.
Errors carry the character position that broke the parse.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .errors import ParseError, brief
from .isometry import CyclotomicMultiset, IsometryPattern
from .polyfield import FieldContext, Poly, _poly, poly_sum

_BindingValue = Union[Poly, int, Fraction]

# Every open parenthesis is one level of parser recursion; the cap keeps the
# deepest parse well inside Python's recursion limit.
MAX_NESTING = 100

# Largest degree of any subexpression of a polynomial, checked from the
# degrees before a product or power is expanded.  An exponent is capped too,
# whatever its base, so a constant's power cannot grow without bound.
MAX_DEGREE = 150

# Coefficient budget, in bits as ``_bits`` counts them, of a power (its exponent
# times its base's) and a product (the sum of its operands'), both checked
# before they are expanded, constant bases included, and of a parsed
# polynomial, which also bounds what sums and products by t^k or w add.  Just
# above the 2,720 bits of the B^20 gcd ladder that CI runs; README has timings.
MAX_COEFF_BITS = 3000

# Longest INT token, below the interpreter's 4,300-digit limit on converting
# between int and str.
MAX_LITERAL_DIGITS = 1000

# Largest d in Phi(d): every d > 66 has phi(d) > 22, too large for a rank-22
# pattern, and the cap bounds the totient's trial division at 10^3 steps.
MAX_BLOCK_ORDER = 10**6

_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_CHARS = _NAME_START | _DIGITS


class Lexer:
    """Tokens (kind, text, position) of one input, ending in an END token."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = depth = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                if j - i > MAX_LITERAL_DIGITS:
                    raise ParseError(f"integer longer than {MAX_LITERAL_DIGITS} digits", i)
                self.tokens.append(("INT", text[i:j], i))
                i = j
                continue
            if ch in _NAME_START:
                j = i
                while j < len(text) and text[j] in _NAME_CHARS:
                    j += 1
                self.tokens.append(("NAME", text[i:j], i))
                i = j
                continue
            if ch in "+-*^/()[],;:":
                if ch == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise ParseError(f"more than {MAX_NESTING} nested parentheses", i)
                elif ch == ")":
                    depth -= 1
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("END", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {brief(tok[1] or 'end of input')}", tok[2])
        return self.next()


def _is_monomial(p: Poly) -> bool:
    """Whether p is t^k for some k >= 0."""
    return p.den == 1 and not p.ys and p.xs[-1:] == (1,) and not any(p.xs[:-1])


def _is_w(p: Poly) -> bool:
    """Whether p is the generator w."""
    return p.den == 1 and p.xs == (0,) and p.ys == (1,)


def _bits(p: Poly) -> int:
    """Size of p's coefficients: the bits of its largest entry or denominator,
    plus those of its number of coefficients and, with a w part, of |d|.  The
    entries of p*q have at most _bits(p) + _bits(q) bits, those of p^n at
    most n*_bits(p)."""
    xs, ys = p.xs or (0,), p.ys or (0,)
    top = max(p.den, max(xs), -min(xs), max(ys), -min(ys)).bit_length()
    return top + len(p.xs).bit_length() + (abs(p.context.d).bit_length() if p.ys else 0)


def _check_bits(bits: int, what: str, pos: int) -> None:
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"{what} exceeds the coefficient budget of {MAX_COEFF_BITS} bits", pos)


class _PolyParser:
    def __init__(self, text: str, context: FieldContext,
                 bindings: Mapping[str, _BindingValue] | None):
        self.lx = Lexer(text)
        self.context = context
        self.bindings = dict(bindings or {})

    def parse(self) -> Poly:
        p = self._expr()
        tok = self.lx.peek()
        if tok[0] != "END":
            raise ParseError(f"trailing input {brief(tok[1])}", tok[2])
        _check_bits(_bits(p), "polynomial", 0)
        return p

    def _expr(self) -> Poly:
        terms = [(1, self._term())]
        while self.lx.peek()[0] in ("+", "-"):
            sign = 1 if self.lx.next()[0] == "+" else -1
            terms.append((sign, self._term()))
        return terms[0][1] if len(terms) == 1 else poly_sum(self.context, terms)

    def _term(self) -> Poly:
        p = self._factor()
        while self.lx.peek()[0] == "*":
            pos = self.lx.next()[2]
            q = self._factor()
            if p.degree + q.degree > MAX_DEGREE:
                raise ParseError(f"product exceeds the degree cap {MAX_DEGREE}", pos)
            if _is_monomial(p) or _is_w(p):
                p, q = q, p
            if _is_monomial(q):  # p shifted up deg q places
                pad = (0,) * q.degree
                p = Poly(self.context, pad + p.xs, pad + p.ys if p.ys else (), p.den) if p.xs else p
            elif _is_w(q):  # p*w = d*ys + xs*w; a chain of w is checked with the polynomial
                p = _poly(self.context, [self.context.d * y for y in p.ys], list(p.xs), p.den)
            else:
                _check_bits(_bits(p) + _bits(q), "product", pos)
                p = p * q if p.degree > 0 and q.degree > 0 else p.scale(q)
        return p

    def _factor(self) -> Poly:
        negate = False
        while self.lx.peek()[0] == "-":
            self.lx.next()
            negate = not negate
        p = self._atom()
        while self.lx.peek()[0] == "^":
            self.lx.next()
            tok = self.lx.expect("INT")
            n, k = int(tok[1]), p.degree
            if n * max(k, 1) > MAX_DEGREE:
                raise ParseError(f"power exceeds the degree cap {MAX_DEGREE}", tok[2])
            if _is_monomial(p):
                p = Poly.monomial(self.context, k * n)
            else:
                _check_bits(n * _bits(p), "power", tok[2])
                p = p ** n
        return -p if negate else p

    def _atom(self) -> Poly:
        kind, value, pos = self.lx.peek()
        if kind == "(":
            self.lx.next()
            p = self._expr()
            self.lx.expect(")")
            return p
        if kind == "INT":
            self.lx.next()
            den = 1
            if self.lx.peek()[0] == "/":
                self.lx.next()
                dtok = self.lx.expect("INT")
                den = int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
            return _poly(self.context, [int(value)], [], den)
        if kind == "NAME":
            self.lx.next()
            if value == "t":
                return Poly(self.context, (0, 1))
            if value == "w":
                if not self.context.is_quadratic:
                    raise ParseError("'w' needs a quadratic context", pos)
                return Poly(self.context, (0,), (1,))
            if value in self.bindings:
                bound = self.bindings[value]
                if isinstance(bound, Poly) and bound.context != self.context:
                    raise ParseError(f"binding {brief(value)} from another context", pos)
                return bound if isinstance(bound, Poly) else Poly.constant(self.context, bound)
            raise ParseError(f"unbound name {brief(value)}", pos)
        raise ParseError(f"expected a value, found {brief(value or 'end of input')}", pos)


def parse_poly(text: str, context: FieldContext,
               bindings: Mapping[str, _BindingValue] | None = None) -> Poly:
    """Parse a polynomial in t over the given context."""
    return _PolyParser(text, context, bindings).parse()


def _parse_multiset_items(lx: Lexer) -> CyclotomicMultiset:
    lx.expect("[")
    counts: dict[int, int] = {}
    if lx.peek()[0] != "]":
        while True:
            _parse_pattern_item(lx, counts)
            if lx.peek()[0] != ",":
                break
            lx.next()
    lx.expect("]")
    return CyclotomicMultiset.from_counts(counts)


def _parse_pattern_item(lx: Lexer, counts: dict[int, int]) -> None:
    kind, value, pos = lx.next()
    if kind == "-":
        tok = lx.expect("INT")
        if tok[1] != "1":
            raise ParseError("only -1 units are allowed", tok[2])
        d = 2
    elif kind == "INT":
        if value != "1":
            raise ParseError("only +-1 units are allowed", pos)
        d = 1
    elif kind == "NAME" and value == "Phi":
        lx.expect("(")
        tok = lx.expect("INT")
        d = int(tok[1])
        if d < 1:
            raise ParseError("Phi needs a positive order", tok[2])
        if d > MAX_BLOCK_ORDER:
            raise ParseError(f"Phi order exceeds the cap {MAX_BLOCK_ORDER}", tok[2])
        lx.expect(")")
    else:
        raise ParseError(f"expected 1, -1 or Phi(d), found {brief(value or 'end of input')}", pos)
    count = 1
    if lx.peek()[0] == "*":
        lx.next()
        tok = lx.expect("INT")
        count = int(tok[1])
        if count < 1:
            raise ParseError("count must be positive", tok[2])
    counts[d] = counts.get(d, 0) + count


def parse_pattern(text: str) -> IsometryPattern:
    """Parse a full pattern literal ``S: [...]; T: [...]``."""
    lx = Lexer(text)
    tok = lx.expect("NAME")
    if tok[1] != "S":
        raise ParseError("pattern must start with 'S'", tok[2])
    lx.expect(":")
    algebraic = _parse_multiset_items(lx)
    lx.expect(";")
    tok = lx.expect("NAME")
    if tok[1] != "T":
        raise ParseError("second part must be 'T'", tok[2])
    lx.expect(":")
    transcendental = _parse_multiset_items(lx)
    tok = lx.peek()
    if tok[0] != "END":
        raise ParseError(f"trailing input {brief(tok[1])}", tok[2])
    return IsometryPattern(algebraic, transcendental)

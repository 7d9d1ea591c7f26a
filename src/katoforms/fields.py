"""Exact arithmetic in F_p(x_1, ..., x_m).

Elements are reduced fractions of sparse multivariate polynomials over a
prime field.  Everything downstream (differential forms, certificates,
the bounded solvers) reduces to the operations here, most importantly the
Frobenius decomposition f = sum_j g_j^p x^j over exponent vectors
j in {0, ..., p-1}^m, which is unique because the variables form a p-basis
of the field over its subfield of p-th powers.

The field is one value, ``FunctionField(p, vars)``: a named tuple of the
modulus and the variable names, whose constructor refuses a modulus that is
not a prime below 2^64 and a repeated name.

Canonical conventions: graded-lexicographic term order, monic denominators,
zero represented as 0/1.  Values are immutable after construction, so every
operation is pure.

Every ``RatFunc`` is kept canonical: num/den in lowest terms, den monic.
``ratfunc_normalize`` makes that form from any fraction by one gcd of the
whole numerator and denominator; it is a constructor, and no ``RatFunc``
operation normalizes a product.  The operations rely on their operands being
canonical and take gcds of denominators and cofactors only (Henrici; Knuth,
TAOCP vol. 2, 4.5.1).  For a/b + c/d:

    b = 1 or d = 1:  (a d + c b)/(b d) as it stands, no gcd;
    b = d:           one gcd of (a + c, b);
    g = gcd(b, d):   g = 1 gives (a d + c b)/(b d) as it stands; otherwise
                     t = a (d/g) + c (b/g), g2 = gcd(t, g), and the sum is
                     (t/g2) / ((b/g)(d/g2)).

A product cancels across only, gcd(a, d) and gcd(c, b), skipping a gcd over
a denominator 1, and ``scale`` by a unit takes none.  ``inv`` swaps num and
den and makes the new denominator monic, with no gcd, and a/b / (c/d) is
a/b * (d/c), so a quotient takes the product's two cross gcds.  The
derivative ``partial`` of a/b takes none for b = 1 and otherwise
g = gcd(b, db), h = b/g and t = (da) h - a (db/g); t is prime to h, and the
derivative is t/(h b) with g2 = gcd(t, g) cancelled, a gcd skipped when
g = 1.  No gcd is taken against b^2.  The reduced form with a monic
denominator is unique, so these give exactly what normalizing the schoolbook
fraction gives.  ``ratfunc_sum_is_zero`` decides whether a signed sum of
canonical fractions is zero without a gcd: a zero test needs no reduced sum.

``poly_gcd`` works in the highest variable x_i that either operand has.
Operands in x_i alone go to a dense leaf: Euclid over F_p on coefficient
lists.  Otherwise the contents (gcds of the x_i-coefficients) are split off
at the top, and the primitive parts run the subresultant PRS (Collins 1967;
Brown and Traub 1971): each pseudo-remainder lc(b)^(delta+1) a mod b is
divided exactly by g h^delta, where g is the leading coefficient of the
previous divisor and h <- g^delta / h^(delta-1), so no content is taken
inside the sequence; one primitive part is taken of its last nonzero
member.  Either way the result is the monic gcd, which is unique.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import FieldMismatch, ZeroDenominator
from .kernels import poly_add, poly_mul, poly_exact_div as kernel_exact_div


# Miller-Rabin with the first twelve primes as bases answers exactly for every
# n < 318,665,857,834,031,151,167,461 (Sorenson and Webster 2015), far above
# the largest modulus a field accepts
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = frozenset(_MR_BASES)
_MAX_MODULUS = 1 << 64


def _is_prime(n: int) -> bool:
    """Exact primality for n below 3.18 * 10^23, in O(log n) multiplications."""
    if n in _SMALL_PRIMES:
        return True
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return False
    if n < 37 * 37:
        return True
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _FieldTuple(NamedTuple):
    p: int
    vars: tuple[str, ...]


class FunctionField(_FieldTuple):
    """The rational function field F_p(x_1, ..., x_m) with its fixed p-basis
    x_1, ..., x_m; all scalar arithmetic is mod p.

    A named tuple of the modulus and the variable names, so reading ``p`` is
    a C-level tuple access and equality and hashing are the tuple's.  Every
    operand check in the package compares fields, mostly a field with itself;
    tuple comparison runs in C and tests each component for identity first,
    so that check makes no Python call, while equal fields built apart still
    compare equal.  The constructor refuses a modulus that is not a prime
    below 2^64 and a repeated variable name, so no invalid field is built.
    """

    __slots__ = ()

    def __new__(cls, p: int, vars: Iterable[str]) -> "FunctionField":
        if p >= _MAX_MODULUS:
            raise ValueError(f"modulus {p} is not below 2^64")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names")
        return tuple.__new__(cls, (p, vars))

    @classmethod
    def _make(cls, iterable: Iterable) -> "FunctionField":
        # ``_replace`` builds through ``_make``: both check, as the constructor does
        return cls(*iterable)

    @staticmethod
    def make(p: int, names: Iterable[str]) -> "FunctionField":
        return FunctionField(p, names)

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def inv(self, a: int) -> int:
        """The inverse of a in F_p."""
        p = self.p
        a %= p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, p - 2, p)

    def zero_poly(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def const_poly(self, c: int) -> "MultiPoly":
        c %= self.p
        if c == 0:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.nvars: c})

    def var_poly(self, i: int) -> "MultiPoly":
        e = [0] * self.nvars
        e[i] = 1
        return MultiPoly(self, {tuple(e): 1})

    def monomial(self, exps: tuple[int, ...], c: int = 1) -> "MultiPoly":
        c %= self.p
        if c == 0:
            return MultiPoly(self, {})
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        return MultiPoly(self, {tuple(exps): c})

    def zero(self) -> "RatFunc":
        return RatFunc(self, self.zero_poly(), self.const_poly(1))

    def one(self) -> "RatFunc":
        return RatFunc(self, self.const_poly(1), self.const_poly(1))

    def const(self, c: int) -> "RatFunc":
        return RatFunc(self, self.const_poly(c), self.const_poly(1))

    def var(self, i: int) -> "RatFunc":
        return RatFunc(self, self.var_poly(i), self.const_poly(1))

    def var_named(self, name: str) -> "RatFunc":
        return self.var(self.vars.index(name))

    def __repr__(self) -> str:
        return f"F{self.p}({','.join(self.vars)})"


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _power(base, n: int):
    """base ** n for n >= 1 by square and multiply: no product by one, no
    square past the top bit."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


class MultiPoly:
    """Sparse polynomial in F_p[x_1, ..., x_m]; no zero coefficients stored."""

    __slots__ = ("field", "terms", "_hash")

    def __init__(self, field: FunctionField, terms: dict):
        self.field = field
        self.terms = terms
        self._hash: Optional[int] = None

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        # no zero coefficient is stored: a constant has no term or one at x^0
        terms = self.terms
        if len(terms) != 1:
            return not terms
        (exp,) = terms
        return not any(exp)

    def const_value(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_const():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def leading(self) -> tuple[tuple[int, ...], int]:
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def degree_in(self, i: int) -> int:
        if self.is_zero():
            return -1
        return max(exp[i] for exp in self.terms)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(exp) for exp in self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.field, poly_add(self.terms, other.terms, self.field.p))

    def __neg__(self) -> "MultiPoly":
        p = self.field.p
        return MultiPoly(self.field, {e: (-c) % p for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        return MultiPoly(self.field, poly_mul(self.terms, other.terms, self.field.p))

    def scale(self, c: int) -> "MultiPoly":
        c %= self.field.p
        if c == 0:
            return self.field.zero_poly()
        if c == 1:
            return self
        p = self.field.p
        return MultiPoly(self.field, {e: (c * k) % p for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return self.field.const_poly(1)
        return _power(self, n)

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(self.field.inv(lc))

    def partial(self, i: int) -> "MultiPoly":
        p = self.field.p
        out: dict = {}
        for exp, c in self.terms.items():
            k = exp[i] % p
            if k == 0:
                continue
            e = list(exp)
            e[i] -= 1
            # distinct exponents stay distinct, and c * k is a unit mod p
            out[tuple(e)] = c * k % p
        return MultiPoly(self.field, out)

    def frobenius_power(self) -> "MultiPoly":
        """Raise to the p-th power (exponents scale, coefficients fixed)."""
        p = self.field.p
        return MultiPoly(
            self.field, {tuple(e * p for e in exp): c for exp, c in self.terms.items()}
        )

    def substitute(self, images: Sequence["RatFunc"], target: FunctionField) -> "RatFunc":
        """Evaluate under x_i -> images[i]; every variable must be mapped."""
        # the sum starts from the first term, not from a zero to add it to
        out = None
        for exp, c in self.terms.items():
            term = target.const(c)
            for i, e in enumerate(exp):
                if e:
                    term = term * (images[i] ** e)
            out = term if out is None else out + term
        return target.zero() if out is None else out

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exp]
            factors = []
            if c != 1 or all(e == 0 for e in exp):
                factors.append(str(c))
            for name, e in zip(self.field.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


# -- division and gcd ----------------------------------------------------


def poly_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Quotient a/b when b divides a; raises ValueError otherwise
    (``kernels.poly_exact_div``), and ZeroDivisionError when b is zero, the
    constant with no inverse."""
    field = a.field
    if b.is_const():
        return a.scale(field.inv(b.const_value()))
    return MultiPoly(field, kernel_exact_div(a.terms, b.terms, field.p))


def _main_var(a: MultiPoly, b: MultiPoly) -> Optional[int]:
    for i in reversed(range(a.field.nvars)):
        if a.degree_in(i) > 0 or b.degree_in(i) > 0:
            return i
    return None


def _coeffs_in(a: MultiPoly, i: int) -> dict[int, MultiPoly]:
    """View of a as a univariate polynomial in x_i with MultiPoly coefficients."""
    field = a.field
    out: dict[int, dict] = {}
    for exp, c in a.terms.items():
        d = exp[i]
        e = list(exp)
        e[i] = 0
        out.setdefault(d, {})[tuple(e)] = c
    return {d: MultiPoly(field, t) for d, t in out.items()}


def _content(a: MultiPoly, i: int) -> MultiPoly:
    """GCD of the x_i-coefficients of a (a polynomial free of x_i)."""
    g = a.field.zero_poly()
    for coeff in _coeffs_in(a, i).values():
        g = poly_gcd(g, coeff)
        if g.is_const() and not g.is_zero():
            break
    return g


def _lc_in(a: MultiPoly, i: int, d: int, to: int = 0) -> MultiPoly:
    """The leading coefficient of a in x_i, d = deg_i a, times x_i^to."""
    out = {}
    for exp, c in a.terms.items():
        if exp[i] == d:
            e = list(exp)
            e[i] = to
            out[tuple(e)] = c
    return MultiPoly(a.field, out)


def _prem(a: MultiPoly, b: MultiPoly, i: int) -> MultiPoly:
    """Pseudo-remainder lc(b)^(delta+1) a mod b in x_i, delta = deg a - deg b.

    Needs deg_i a >= deg_i b >= 1.  Each reduction step multiplies by lc(b)
    once; the steps a degree drop skips are made up at the end, so the
    multiplier is always lc(b)^(delta+1) and the subresultant divisions
    in ``poly_gcd`` are exact.
    """
    db = b.degree_in(i)
    lc_b = _lc_in(b, i, db)
    steps = a.degree_in(i) - db + 1
    rem = a
    while not rem.is_zero():
        dr = rem.degree_in(i)
        if dr < db:
            break
        rem = rem * lc_b - b * _lc_in(rem, i, dr, dr - db)
        steps -= 1
    if steps and not rem.is_zero():
        rem = rem * lc_b ** steps
    return rem


def _in_var_alone(a: MultiPoly, i: int) -> bool:
    return all(sum(exp) == exp[i] for exp in a.terms)


def _dense_gcd(a: MultiPoly, b: MultiPoly, i: int) -> MultiPoly:
    """Monic gcd of a and b in x_i alone: Euclid over F_p on coefficient
    lists, lowest degree first."""
    field = a.field
    p = field.p
    u, v = [0] * (a.degree_in(i) + 1), [0] * (b.degree_in(i) + 1)
    for poly, dense in ((a, u), (b, v)):
        for exp, c in poly.terms.items():
            dense[exp[i]] = c
    while v:
        # u <- u mod v
        inv = pow(v[-1], p - 2, p)
        top = len(v) - 1
        while len(u) > top:
            q = u.pop() * inv % p
            shift = len(u) - top
            for k in range(top):
                u[shift + k] = (u[shift + k] - q * v[k]) % p
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    inv = pow(u[-1], p - 2, p)
    mono = [0] * field.nvars
    out = {}
    for k, c in enumerate(u):
        if c:
            mono[i] = k
            out[tuple(mono)] = c * inv % p
    return MultiPoly(field, out)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of a and b (see the module docstring for the method)."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    field = a.field
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_const() or b.is_const():
        return field.const_poly(1)
    i = _main_var(a, b)
    if i is None:
        return field.const_poly(1)
    if a.degree_in(i) == 0 or b.degree_in(i) == 0:
        # one operand is free of the main variable: gcd divides its content
        free, other = (a, b) if a.degree_in(i) == 0 else (b, a)
        return poly_gcd(free, _content(other, i)).monic()
    if _in_var_alone(a, i) and _in_var_alone(b, i):
        return _dense_gcd(a, b, i)
    cont_a = _content(a, i)
    cont_b = _content(b, i)
    cont_g = poly_gcd(cont_a, cont_b)
    pa = poly_exact_div(a, cont_a)
    pb = poly_exact_div(b, cont_b)
    if pa.degree_in(i) < pb.degree_in(i):
        pa, pb = pb, pa
    # subresultant PRS: g = lc of the previous divisor, h <- g^delta / h^(delta-1)
    g = h = field.const_poly(1)
    while True:
        delta = pa.degree_in(i) - pb.degree_in(i)
        r = _prem(pa, pb, i)
        if r.is_zero():
            break
        if r.degree_in(i) == 0:
            return cont_g.monic()
        pa, pb = pb, poly_exact_div(r, g if delta == 0 else g * h ** delta)
        g = _lc_in(pa, i, pa.degree_in(i))
        if delta:
            h = g if delta == 1 else poly_exact_div(g ** delta, h ** (delta - 1))
    return (cont_g * poly_exact_div(pb, _content(pb, i))).monic()


# -- rational functions ----------------------------------------------------


class RatFunc:
    """Reduced fraction num/den with monic denominator; zero is 0/1."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: FunctionField, num: MultiPoly, den: MultiPoly):
        self.field = field
        self.num = num
        self.den = den
        self._hash: Optional[int] = None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_const()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def _check(self, other: "RatFunc") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """Henrici's sum: gcds of the denominators and their cofactors only."""
        self._check(other)
        field = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        # a denominator 1: gcd(a d + c, d) = gcd(c, d) = 1, and d is monic; a
        # zero sum means c = -a d, so d = 1 and the sum is already 0/1
        if b.is_const():
            return RatFunc(field, (a if d.is_const() else a * d) + c, d)
        if d.is_const():
            return RatFunc(field, a + c * b, b)
        if b == d:
            return ratfunc_normalize(a + c, b)
        g = poly_gcd(b, d)
        if g.is_const():
            # b, d coprime and not 1: a d + c b is nonzero and prime to b and d
            return RatFunc(field, a * d + c * b, b * d)
        bg = poly_exact_div(b, g)
        # t is nonzero (else b/g divides a, so b | d, and likewise d | b) and
        # prime to b/g and d/g, so gcd(t, g) is all that cancels
        t = a * poly_exact_div(d, g) + c * bg
        g2 = poly_gcd(t, g)
        if g2.is_const():
            return RatFunc(field, t, bg * d)
        return RatFunc(field, poly_exact_div(t, g2), bg * poly_exact_div(d, g2))

    def __neg__(self) -> "RatFunc":
        return RatFunc(self.field, -self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        """Cross-cancel: gcd(a, d) and gcd(c, b) only, none over a denominator 1."""
        self._check(other)
        field = self.field
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return field.zero()
        if not d.is_const():
            g = poly_gcd(a, d)
            if not g.is_const():
                a, d = poly_exact_div(a, g), poly_exact_div(d, g)
        if not b.is_const():
            g = poly_gcd(c, b)
            if not g.is_const():
                c, b = poly_exact_div(c, g), poly_exact_div(b, g)
        return RatFunc(field, a * c, b * d)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        """self times the inverse of other: the product's two cross gcds."""
        self._check(other)
        if other.is_zero():
            raise ZeroDenominator("division by zero")
        return self * other.inv()

    def inv(self) -> "RatFunc":
        """den/num made monic: a reduced pair stays reduced, so no gcd."""
        num, den = self.num, self.den
        if num.is_zero():
            raise ZeroDenominator("inverse of zero")
        _, lc = num.leading()
        if lc != 1:
            u = self.field.inv(lc)
            num, den = num.scale(u), den.scale(u)
        return RatFunc(self.field, den, num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self.field.one()
        return _power(self, n)

    def scale(self, c: int) -> "RatFunc":
        """c times self; a unit c keeps the fraction reduced, so no gcd."""
        num = self.num.scale(c)
        if num.is_zero():
            return self.field.zero()
        return RatFunc(self.field, num, self.den)

    def frobenius_power(self) -> "RatFunc":
        """p-th power; exact because coefficients live in F_p."""
        return RatFunc(self.field, self.num.frobenius_power(), self.den.frobenius_power())

    def substitute(self, images: Sequence["RatFunc"], target: FunctionField) -> "RatFunc":
        num = self.num.substitute(images, target)
        den = self.den.substitute(images, target)
        if den.is_zero():
            raise ZeroDenominator("substitution sends denominator to zero")
        return num / den

    def __repr__(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def ratfunc_normalize(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """Canonical reduced form: gcd removed, denominator monic, zero = 0/1."""
    if num.field != den.field:
        raise FieldMismatch(f"{num.field} vs {den.field}")
    field = num.field
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if num.is_zero():
        return RatFunc(field, field.zero_poly(), field.const_poly(1))
    g = poly_gcd(num, den)
    if not (g.is_const() and g.const_value() == 1):
        num = poly_exact_div(num, g)
        den = poly_exact_div(den, g)
    _, lc = den.leading()
    if lc != 1:
        inv = field.inv(lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return RatFunc(field, num, den)


def ratfunc_sum_is_zero(field: FunctionField, terms: Iterable[tuple[int, RatFunc]]) -> bool:
    """Whether sum c f = 0 over the (c, f) pairs, c an integer and f canonical.

    No gcd and no normal form: the numerators c num(f) over each monic
    denominator are added, and the sum is zero exactly when no group is left
    nonzero, or when two or more are and sum_g n_g prod_{h != g} d_h = 0
    (a denominator 1 is not multiplied).  One nonzero group n/d is not zero.
    """
    p = field.p
    dens: list[MultiPoly] = []
    nums: list[dict] = []
    for c, f in terms:
        num = f.num.terms if c == 1 else f.num.scale(c).terms
        for g, den in enumerate(dens):
            if den.terms == f.den.terms:
                nums[g] = poly_add(nums[g], num, p)
                break
        else:
            dens.append(f.den)
            nums.append(num)
    groups = [(n, den) for n, den in zip(nums, dens) if n]
    if not groups:
        return True
    if len(groups) == 1:
        return False
    total: dict = {}
    for g, (n, _) in enumerate(groups):
        for h, (_, den) in enumerate(groups):
            if h != g and not den.is_const():
                n = poly_mul(n, den.terms, p)
        total = poly_add(total, n, p)
    return not total


# -- derivations and Frobenius structure ----------------------------------


def partial(f: RatFunc, i: int) -> RatFunc:
    """Formal partial derivative d/dx_i of a reduced a/b by the quotient rule.

    No gcd is taken against b^2.  A denominator 1 gives (da)/1 with no gcd.
    Otherwise g = gcd(b, db), h = b/g and t = (da) h - a (db/g), so that
    (da b - a db)/b^2 = t/(h b).  Each irreducible factor of h divides b but
    neither a nor db/g, so t is prime to h and only g2 = gcd(t, g) cancels: at
    most two gcds, against b and its factor g, and one when g = 1
    (Bronstein, Symbolic Integration I, 1.3).  t = 0 gives 0/1.
    """
    field = f.field
    if not 0 <= i < field.nvars:
        raise IndexError(f"variable index {i} out of range")
    a, b = f.num, f.den
    if b.is_const():
        return RatFunc(field, a.partial(i), b)
    db = b.partial(i)
    g = poly_gcd(b, db)
    h = poly_exact_div(b, g)
    t = a.partial(i) * h - a * poly_exact_div(db, g)
    if t.is_zero():
        return field.zero()
    g2 = g if g.is_const() else poly_gcd(t, g)
    if not g2.is_const():
        t, b = poly_exact_div(t, g2), poly_exact_div(b, g2)
    return RatFunc(field, t, h * b)


def frobenius_decompose(f: RatFunc) -> dict[tuple[int, ...], RatFunc]:
    """Unique expansion f = sum_j g_j^p x^j over j in {0..p-1}^m; zeros omitted.

    Denominators are cleared by writing f = (num * den^(p-1)) / den^p, after
    which the polynomial case applies monomial by monomial (coefficients in
    F_p are their own p-th roots).
    """
    field = f.field
    p = field.p
    if f.is_zero():
        return {}
    weighted = f.num * (f.den ** (p - 1))
    buckets: dict[tuple[int, ...], dict] = {}
    for exp, c in weighted.terms.items():
        j = tuple(e % p for e in exp)
        root = tuple(e // p for e in exp)
        buckets.setdefault(j, {})[root] = c
    out: dict[tuple[int, ...], RatFunc] = {}
    for j, terms in buckets.items():
        g = ratfunc_normalize(MultiPoly(field, terms), f.den)
        if not g.is_zero():
            out[j] = g
    return out


def frobenius_compose(field: FunctionField, parts: Mapping[tuple[int, ...], RatFunc]) -> RatFunc:
    """Inverse of frobenius_decompose: sum_j g_j^p x^j, started from the
    first term, not from zero."""
    terms = [
        g.frobenius_power() * RatFunc(field, field.monomial(j), field.const_poly(1))
        for j, g in parts.items()
    ]
    return sum(terms[1:], terms[0]) if terms else field.zero()


def pth_root(f: RatFunc) -> Optional[RatFunc]:
    """g with g^p = f, or None when f is not a p-th power."""
    parts = frobenius_decompose(f)
    zero_j = (0,) * f.field.nvars
    if any(j != zero_j for j in parts):
        return None
    if not parts:
        return f.field.zero()
    return parts[zero_j]


def subfield_membership(f: RatFunc, names: Iterable[str]) -> bool:
    """Membership in F^p(x_S): the Frobenius support must stay inside S."""
    allowed = {f.field.vars.index(name) for name in names}
    for j in frobenius_decompose(f):
        for i, e in enumerate(j):
            if e and i not in allowed:
                return False
    return True


# -- randomized element generation (test support) --------------------------


def random_poly(field: FunctionField, rng, max_degree: int, terms: int) -> MultiPoly:
    """Deterministic-for-seed sparse polynomial with per-variable degrees bounded."""
    out: dict = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_degree) for _ in range(field.nvars))
        out = poly_add(out, {exp: rng.randint(1, field.p - 1)}, field.p)
    return MultiPoly(field, out)


def random_ratfunc(
    field: FunctionField,
    rng,
    max_degree: int = 2,
    terms: int = 3,
    den_pool: Optional[list[MultiPoly]] = None,
    nonzero: bool = False,
) -> RatFunc:
    """Random reduced fraction; denominator drawn from den_pool (default 1)."""
    while True:
        num = random_poly(field, rng, max_degree, terms)
        den = rng.choice(den_pool) if den_pool else field.const_poly(1)
        f = ratfunc_normalize(num, den)
        if not (nonzero and f.is_zero()):
            return f


def all_monomials(field: FunctionField, max_total_degree: int) -> Iterator[MultiPoly]:
    """All monomials of total degree <= bound, in graded-lex order."""

    def rec(prefix: list[int], remaining: int, budget: int):
        if remaining == 0:
            yield tuple(prefix)
            return
        for e in range(budget + 1):
            yield from rec(prefix + [e], remaining - 1, budget - e)

    exps = sorted(rec([], field.nvars, max_total_degree), key=_grlex_key)
    for exp in exps:
        yield field.monomial(exp)

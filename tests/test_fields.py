"""Field arithmetic: canonical forms, derivations, Frobenius structure."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import katoforms

from katoforms import (
    FieldMismatch,
    FunctionField,
    ZeroDenominator,
    frobenius_compose,
    frobenius_decompose,
    partial,
    poly_gcd,
    pth_root,
    ratfunc_normalize,
    subfield_membership,
)
from katoforms import fields
from katoforms.fields import random_poly, random_ratfunc


def test_prime_field_rejects_composites():
    assert FunctionField(2, ("x",)).p == 2
    assert FunctionField(13, ("x",)).p == 13
    with pytest.raises(ValueError):
        FunctionField(4, ("x",))
    with pytest.raises(ValueError):
        FunctionField(1, ("x",))


_BAD_FIELDS = [
    (4, ["x"], "modulus 4 is not prime"),
    (1, ["x"], "modulus 1 is not prime"),
    (2**64 + 13, ["x"], f"modulus {2**64 + 13} is not below 2^64"),
    (2, ["x", "y", "x"], "duplicate variable names"),
]


@pytest.mark.parametrize("build", ["class", "make", "_make", "_replace"])
@pytest.mark.parametrize("p, names, message", _BAD_FIELDS, ids=[m for _, _, m in _BAD_FIELDS])
def test_field_constructor_refuses_invalid_fields(build, p, names, message):
    makers = {
        "class": lambda: FunctionField(p, tuple(names)),
        "make": lambda: FunctionField.make(p, names),
        "_make": lambda: FunctionField._make((p, tuple(names))),
        "_replace": lambda: FunctionField.make(2, ["x"])._replace(p=p, vars=tuple(names)),
    }
    with pytest.raises(ValueError) as caught:
        makers[build]()
    assert str(caught.value) == message


def test_field_is_a_tuple_of_modulus_and_names():
    f = FunctionField.make(3, ["x", "y"])
    assert f == FunctionField(3, ("x", "y")) == (3, ("x", "y"))
    assert hash(f) == hash((3, ("x", "y")))
    assert f.p == 3 and f.vars == ("x", "y") and f.nvars == 2
    assert FunctionField(3, ["x", "y"]).vars == ("x", "y")
    assert f != FunctionField.make(3, ["y", "x"]) and f != FunctionField.make(5, ["x", "y"])
    assert repr(f) == "F3(x,y)" and not hasattr(f, "__dict__")
    for name in ("p", "vars", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert f.var_named("y") == f.var(1)
    assert [f.inv(a) for a in (1, 2, -1, 5)] == [1, 2, 2, 2]
    with pytest.raises(ZeroDivisionError):
        f.inv(3)


def _python(args, timeout=60):
    """A fresh interpreter on the package sources; a stall fails the test
    at the timeout instead of holding it."""
    src = str(Path(katoforms.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], env={"PYTHONPATH": src},
                          capture_output=True, text=True, timeout=timeout)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(-3, 5000):
        assert fields._is_prime(n) == sympy.isprime(n), n
    rng = random.Random(20151)
    big = [rng.randrange(2**64) | 1 for _ in range(300)]
    # Carmichael numbers, products of two primes near 2^32, and a strong
    # pseudoprime to every prime base up to 31, which only base 37 rejects
    big += [561, 41041, 825265, 321197185, 4294967291 * 4294967279, 3825123056546413051]
    code = "import sys; from katoforms.fields import _is_prime; print([_is_prime(int(n)) for n in sys.argv[1:]])"
    out = _python(["-c", code, *map(str, big)])
    assert out.stdout.strip() == str([sympy.isprime(n) for n in big])
    assert not sympy.isprime(3825123056546413051)


def test_large_prime_moduli_are_accepted_at_once():
    code = (
        "import time; from katoforms.fields import FunctionField, _is_prime; "
        "t = time.perf_counter(); "
        "ok = [_is_prime(10**18 + 3), _is_prime(2**61 - 1), "
        "FunctionField(10**18 + 3, ('x',)).p > 0]; "
        "print(ok, time.perf_counter() - t)"
    )
    out = _python(["-c", code])
    verdict, seconds = out.stdout.split("] ")
    assert verdict == "[True, True, True"
    assert float(seconds) < 0.5


def test_modulus_of_2_to_the_64_or_more_is_refused_with_exit_3():
    out = _python(["-m", "katoforms.cli", "classify", "--form", "x dx",
                   "--field", "F1000000000000000000000007(x)"])
    assert out.returncode == 3
    assert json.loads(out.stdout)["error"] == (
        "ValueError: modulus 1000000000000000000000007 is not below 2^64"
    )


def test_normalize_reduces_common_factor(f2x):
    x = f2x.var(0)
    f = ratfunc_normalize((x * x + x).num, x.num)
    assert f == x + f2x.one()


def test_normalize_zero_and_identity(f2x):
    x = f2x.var(0)
    assert ratfunc_normalize(f2x.zero_poly(), (x ** 3).num) == f2x.zero()
    assert ratfunc_normalize(x.num, x.num) == f2x.one()


def test_normalize_zero_denominator(f2x):
    with pytest.raises(ZeroDenominator):
        ratfunc_normalize(f2x.const_poly(1), f2x.zero_poly())


def test_normalize_canonical_over_common_factors(f2xy, rng):
    for _ in range(80):
        a = random_poly(f2xy, rng, 2, 3)
        b = random_poly(f2xy, rng, 2, 3)
        h = random_poly(f2xy, rng, 2, 2)
        if b.is_zero() or h.is_zero():
            continue
        assert ratfunc_normalize(a * h, b * h) == ratfunc_normalize(a, b)


def test_partial_examples(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    # 2xy vanishes mod 2
    assert partial(x * x * y + x, 0) == f2xy.one()
    assert partial(y, 0) == f2xy.zero()
    f3 = FunctionField.make(3, ["x"])
    x3 = f3.var(0)
    assert partial(x3.inv(), 0) == f3.const(2) / (x3 * x3)


def test_partial_leibniz(f3xy, rng):
    for _ in range(60):
        f = random_ratfunc(f3xy, rng, 2, 3)
        g = random_ratfunc(f3xy, rng, 2, 3)
        i = rng.randrange(2)
        assert partial(f * g, i) == f * partial(g, i) + g * partial(f, i)


def test_frobenius_examples(f2xy, f2x):
    x, y = f2xy.var(0), f2xy.var(1)
    dec = frobenius_decompose(x ** 3 * y + y ** 2)
    assert dec == {(1, 1): x, (0, 0): y}
    x1 = f2x.var(0)
    assert frobenius_decompose(x1 * x1) == {(0,): x1}
    f3 = FunctionField.make(3, ["x", "y"])
    assert frobenius_decompose(f3.var(0)) == {(1, 0): f3.one()}


def test_frobenius_reconstruction_many(rng):
    for p in (2, 3):
        for m in (1, 2, 3):
            fld = FunctionField.make(p, [f"x{i}" for i in range(m)])
            pool = [fld.const_poly(1), fld.var_poly(0)]
            for _ in range(60):
                f = random_ratfunc(fld, rng, 3, 3, pool)
                dec = frobenius_decompose(f)
                assert frobenius_compose(fld, dec) == f
                for j in dec:
                    assert all(0 <= e < p for e in j)


def test_pth_root(f2x, f2xy, rng):
    x = f2x.var(0)
    assert pth_root(x * x) == x
    assert pth_root(x) is None
    xx, yy = f2xy.var(0), f2xy.var(1)
    assert pth_root((xx ** 2 + yy ** 2) / yy ** 4) == (xx + yy) / (yy * yy)
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        for _ in range(40):
            f = random_ratfunc(fld, rng, 2, 3)
            assert pth_root(f ** p) == f


def test_subfield_membership(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    assert subfield_membership(x + y ** 2, ["x"])
    assert not subfield_membership(y, ["x"])
    assert subfield_membership(x ** 2 * y ** 2, [])


def test_gcd_basics(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    g = poly_gcd(((x + y) * (x * y + x)).num, ((x + y) * y).num)
    # x*y + x = x(y+1), shares only (x+y) with (x+y)*y
    assert g == (x + y).num
    assert poly_gcd(f2xy.zero_poly(), x.num) == x.num
    assert poly_gcd(f2xy.const_poly(1), x.num) == f2xy.const_poly(1)


def test_arithmetic_field_axioms(f3xy, rng):
    for _ in range(40):
        a = random_ratfunc(f3xy, rng, 2, 2)
        b = random_ratfunc(f3xy, rng, 2, 2)
        c = random_ratfunc(f3xy, rng, 2, 2)
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a - a == f3xy.zero()


def test_structure_checks_truth_table(f3xy):
    x = f3xy.var(0)
    one = f3xy.one()
    # (value, is_const of the numerator, const_value or None if not constant)
    table = [
        (f3xy.zero(), True, 0),
        (one, True, 1),
        (f3xy.const(2), True, 2),
        (x, False, None),
        (one + x, False, None),
    ]
    for f, const, value in table:
        assert f.num.is_const() is const
        assert f.is_poly()
        if value is None:
            with pytest.raises(ValueError):
                f.num.const_value()
        else:
            assert f.num.const_value() == value
    # a constant numerator over a nonconstant denominator is not a polynomial
    assert not (one / x).is_poly()


def test_fields_made_apart_interoperate():
    a = FunctionField.make(3, ["x", "y"])
    b = FunctionField.make(3, ["x", "y"])
    assert a is not b and a == b and hash(a) == hash(b)
    x, y = a.var(0), b.var(1)
    s = x + y
    assert s == b.var(0) + a.var(1)
    assert s.num == poly_gcd(s.num, (x * (x + y)).num)
    assert ratfunc_normalize(x.num, y.num) * b.var(1) == x
    for other in (FunctionField.make(2, ["x", "y"]), FunctionField.make(3, ["x", "z"])):
        assert other != a
        u = other.var(0)
        for op in (
            lambda: x + u,
            lambda: x * u,
            lambda: x.num + u.num,
            lambda: x.num * u.num,
            lambda: poly_gcd(x.num, u.num),
            lambda: ratfunc_normalize(x.num, u.num),
        ):
            with pytest.raises(FieldMismatch):
                op()
        assert x != u and x.num != u.num


def test_arithmetic_takes_gcds_of_denominators_only(f3xy, monkeypatch):
    """Henrici's sum and the cross-cancelled product: no gcd over a
    denominator 1 or in ``scale``, one for coprime or equal denominators.
    Only the outermost ``poly_gcd`` calls are counted, not its recursion."""
    x, y = f3xy.var(0), f3xy.var(1)
    p, q = x * x + y, x * y + f3xy.one()
    f = ratfunc_normalize(x.num, (x + f3xy.one()).num)
    g = ratfunc_normalize(y.num, (y + f3xy.const(2)).num)
    b = (x + y).num
    h, k = ratfunc_normalize(x.num, b), ratfunc_normalize((y * y).num, b)
    cases = [
        (lambda: p + q, ratfunc_normalize((p + q).num, f3xy.const_poly(1)), 0),
        (lambda: p * q, ratfunc_normalize((p * q).num, f3xy.const_poly(1)), 0),
        (lambda: f.scale(2), ratfunc_normalize(f.num.scale(2), f.den), 0),
        (lambda: f + g, ratfunc_normalize(
            f.num * g.den + g.num * f.den, f.den * g.den), 1),
        (lambda: h + k, ratfunc_normalize(h.num + k.num, b), 1),
    ]
    calls = _count_outermost_gcds(monkeypatch)
    for op, expected, gcds in cases:
        calls.clear()
        assert op() == expected
        assert len(calls) == gcds


def _count_outermost_gcds(monkeypatch):
    """Record the operands of each ``poly_gcd`` call not made by another."""
    inner = fields.poly_gcd
    depth = [0]
    calls = []

    def counting(u, v):
        if not depth[0]:
            calls.append((u, v))
        depth[0] += 1
        try:
            return inner(u, v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fields, "poly_gcd", counting)
    return calls


def test_inverse_and_quotient_rule_take_no_gcd_against_a_product(f3xy, monkeypatch):
    """``inv`` takes no gcd; ``partial`` takes none over a denominator 1, one
    when gcd(b, db) = 1 and two otherwise, and none against b^2."""
    x, y, one = f3xy.var(0), f3xy.var(1), f3xy.one()
    f = ratfunc_normalize((x * y + one).num, (x * x + y).num.scale(2))
    p = x * x * y + x
    b1 = (x + y + one).num
    f1 = ratfunc_normalize((x * y).num, b1)
    b2 = ((x + one) * (x + one) * (y + one)).num
    f2 = ratfunc_normalize((y + x * x).num, b2)

    def derivative(g, i):
        a, b = g.num, g.den
        return ratfunc_normalize(a.partial(i) * b - a * b.partial(i), b * b)

    cases = [
        (lambda: f.inv(), ratfunc_normalize(f.den, f.num), 0),
        (lambda: partial(p, 0), derivative(p, 0), 0),
        (lambda: partial(f1, 0), derivative(f1, 0), 1),
        (lambda: partial(f2, 0), derivative(f2, 0), 2),
    ]
    squares = {b1 * b1, b2 * b2}
    calls = _count_outermost_gcds(monkeypatch)
    for op, expected, gcds in cases:
        calls.clear()
        assert op() == expected
        assert len(calls) == gcds
        assert not any(u in squares or v in squares for u, v in calls)


def test_polynomial_power_multiplies_no_one(f3xy, monkeypatch):
    """Square and multiply from the base: no product by one, no square past
    the top bit, so f ** 1 is f and f ** 5 takes three products."""
    f = (f3xy.var(0) + f3xy.var(1) + f3xy.one()).num
    expected = [f3xy.const_poly(1)]
    for _ in range(5):
        expected.append(expected[-1] * f)
    inner = fields.poly_mul
    calls = []

    def counting(a, b, p):
        calls.append(1)
        return inner(a, b, p)

    monkeypatch.setattr(fields, "poly_mul", counting)
    for n, products in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)]:
        calls.clear()
        assert f ** n == expected[n]
        assert len(calls) == products


def _record_prem(monkeypatch):
    """Record the operands (variable, a, b) of each pseudo-remainder taken."""
    inner = fields._prem
    calls = []

    def recording(a, b, i):
        calls.append((i, a, b))
        return inner(a, b, i)

    monkeypatch.setattr(fields, "_prem", recording)
    return calls


def test_subresultant_prs_with_a_degree_gap(monkeypatch):
    """A remainder sequence in y whose second step drops two degrees, so
    h <- g^2 / h is taken with h = lc != 1 and divides the later remainders.
    Each member equals sympy's subresultant up to a unit."""
    sympy = pytest.importorskip("sympy")
    fld = FunctionField.make(3, ["x", "y"])
    x, y, one = fld.var(0).num, fld.var(1).num, fld.const_poly(1)
    u = (x * y ** 5 + x ** 2 * y ** 2 + x * y).scale(2) + one
    v = x ** 2 * y ** 4 + (x * y).scale(2) + y + one.scale(2)
    c = x * y + one
    calls = _record_prem(monkeypatch)
    assert poly_gcd(u * c, v * c) == c
    steps = [(a, b) for i, a, b in calls if i == 1]
    assert [a.degree_in(1) - b.degree_in(1) for a, b in steps] == [1, 2, 1, 1]
    gens = sympy.symbols("y x")

    def sympy_monic(f):
        return sympy.Poly.from_dict({(e[1], e[0]): k for e, k in f.terms.items()},
                                    *gens, modulus=3).monic()

    members = [steps[0][0]] + [b for _, b in steps]
    expected = sympy_monic(u * c).subresultants(sympy_monic(v * c))
    assert [sympy_monic(f) for f in members] == [f.monic() for f in expected]
    assert poly_gcd(u, v) == one


def test_subresultant_prs_with_equal_degrees(f2xy, monkeypatch):
    """Operands of one degree in y: the first step has delta = 0."""
    x, y, one = f2xy.var(0).num, f2xy.var(1).num, f2xy.const_poly(1)
    calls = _record_prem(monkeypatch)
    g = poly_gcd((y + x) * (x * y + one), (y + x) * (y + x * x))
    assert g == y + x
    assert [a.degree_in(1) - b.degree_in(1) for i, a, b in calls if i == 1][0] == 0


def test_coprime_primitive_parts_give_the_content_gcd(monkeypatch):
    """Primitive parts y + x and y^2 + x are coprime, so the gcd is the
    monic gcd of the contents 2x(x + 1) and x + 1."""
    fld = FunctionField.make(3, ["x", "y"])
    x, y, one = fld.var(0).num, fld.var(1).num, fld.const_poly(1)
    calls = _record_prem(monkeypatch)
    g = poly_gcd((x * (x + one) * (y + x)).scale(2), (x + one) * (y * y + x))
    assert g == x + one
    assert any(i == 1 for i, _, _ in calls)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_univariate_gcd_takes_the_dense_leaf(p, monkeypatch):
    """Pairs in one variable of degree >= 8 go through Euclid on coefficient
    lists, with no pseudo-remainder, and agree with sympy."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(p)
    fld = FunctionField.make(p, ["x", "y"])
    leaf = fields._dense_gcd
    leaves = []

    def counting(a, b, i):
        leaves.append(i)
        return leaf(a, b, i)

    monkeypatch.setattr(fields, "_dense_gcd", counting)
    calls = _record_prem(monkeypatch)
    for i, var in enumerate(sympy.symbols(fld.vars)):

        def poly(deg):
            coeffs = [rng.randint(0, p - 1) for _ in range(deg)] + [rng.randint(1, p - 1)]
            return fields.MultiPoly(fld, {(k, 0) if i == 0 else (0, k): c
                                          for k, c in enumerate(coeffs) if c})

        def to_sympy(f):
            return sympy.Poly.from_dict({(e[i],): c for e, c in f.terms.items()},
                                        var, modulus=p)

        for _ in range(5):
            common = poly(rng.randint(0, 4))
            a = poly(rng.randint(8, 10)) * common
            b = poly(rng.randint(8, 10)) * common
            leaves.clear()
            g = poly_gcd(a, b)
            assert leaves == [i]
            expected = to_sympy(a).gcd(to_sympy(b))
            assert to_sympy(g) == expected
            assert g.leading()[1] == 1
    assert calls == []


def test_pseudo_remainder_identity():
    """lc(b)^(delta+1) a = q b + r with deg r < deg b, also when a reduction
    step drops more than one degree (y^4 + 1 by x y^2 + 1 skips y^3)."""
    fld = FunctionField.make(3, ["x", "y"])
    x, y, one = fld.var(0).num, fld.var(1).num, fld.const_poly(1)
    cases = [
        (y ** 4 + one, x * y * y + one, x * (x * x + one)),
        ((x * y ** 3 + y).scale(2) + x, x * y + one, None),
        (x * y * y + y, (x + one) * y * y + x, None),
        (y ** 5 + x * y ** 2 + one, (x * x + one) * y ** 2 + y, None),
    ]
    for a, b, expected in cases:
        r = fields._prem(a, b, 1)
        if expected is not None:
            assert r == expected
        lc_b = fields._lc_in(b, 1, b.degree_in(1))
        lhs = a * lc_b ** (a.degree_in(1) - b.degree_in(1) + 1)
        q = fields.poly_exact_div(lhs - r, b)
        assert lhs == q * b + r
        assert r.degree_in(1) < b.degree_in(1)

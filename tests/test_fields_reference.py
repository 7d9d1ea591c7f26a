"""Field arithmetic against schoolbook references.

Exact division: ``kernels.poly_exact_div`` (and ``fields.poly_exact_div``
over it) returns the quotient that schoolbook division of ``MultiPoly``
values finds, leading term by leading term, and raises ValueError exactly
when it does.  The divisors are drawn with squared factors, as monomials,
as constants and free, in up to three variables, and the dividends as
multiples of them, multiples with one term added, zero, of low degree and
free.

``RatFunc`` arithmetic against the schoolbook reference: ``+``, ``-``,
``*``, ``scale``, ``inv``, ``/`` and ``partial`` equal ``ratfunc_normalize``
of the cross-multiplied numerator and denominator (for ``partial``, of
``(a'b - ab')/b^2``).  The canonical form is unique, so the two agree term
for term.

The pairs are drawn to reach every branch of the sum and product: one
denominator shared as a factor, equal denominators, denominators 1, a sum
that cancels to zero, a sum that cancels part of the common denominator
(g = h - f for a drawn h), a product that cancels across (g's numerator a
multiple of f's denominator), and free draws.  The fractions for ``partial``,
``inv`` and ``/`` are drawn to reach every branch of the quotient rule and
the quotient: a denominator 1, a repeated factor s^2 r, a factor u with
d_x u = 0 (c x^p + c0 plus a polynomial in y, such as x^p + y), a numerator
that is a p-th power, and a divisor whose numerator and denominator share
factors with the dividend's.  At most two variables, at p in {2, 3, 5}, and
b of degree at most p + 1 in the shape with u, so that the reference's full
gcd over b^2 stays fast (see ``test_fields_sympy.py``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from katoforms import FunctionField, MultiPoly, partial, ratfunc_normalize  # noqa: E402
from katoforms import fields, kernels  # noqa: E402


def _reference_exact_div(a, b):
    """Schoolbook division of a by b, leading term by leading term."""
    field = a.field
    p = field.p
    if b.is_const():
        return a.scale(field.inv(b.const_value()))
    lead_b, lc_b = b.leading()
    inv_lcb = field.inv(lc_b)
    quo: dict = {}
    rem = a
    while not rem.is_zero():
        lead_r, lc_r = rem.leading()
        q_exp = tuple(er - eb for er, eb in zip(lead_r, lead_b))
        if any(e < 0 for e in q_exp):
            raise ValueError("inexact polynomial division")
        q_c = (lc_r * inv_lcb) % p
        quo[q_exp] = q_c
        rem = rem - MultiPoly(field, {q_exp: q_c}) * b
    return MultiPoly(field, quo)


def _poly(draw, fld, nonzero=False, top=2):
    exps = st.tuples(*[st.integers(0, top)] * fld.nvars)
    terms = draw(
        st.dictionaries(exps, st.integers(1, fld.p - 1), min_size=int(nonzero), max_size=3)
    )
    return MultiPoly(fld, terms)


def _field(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return FunctionField.make(p, ["x", "y"][: draw(st.integers(1, 2))])


@st.composite
def pairs(draw):
    fld = _field(draw)
    one = fld.const_poly(1)
    shape = draw(st.sampled_from(
        ["shared", "equal", "over-one", "cancel", "refold", "cross", "free"]
    ))
    a, c = _poly(draw, fld), _poly(draw, fld)
    if shape == "shared":
        s = _poly(draw, fld, nonzero=True)
        b, d = s * _poly(draw, fld, nonzero=True), s * _poly(draw, fld, nonzero=True)
    elif shape == "equal":
        b = d = _poly(draw, fld, nonzero=True)
    elif shape == "over-one":
        b = one
        d = draw(st.sampled_from([one, _poly(draw, fld, nonzero=True)]))
        if draw(st.booleans()):
            b, d = d, b
    else:
        b, d = _poly(draw, fld, nonzero=True), _poly(draw, fld, nonzero=True)
    f = ratfunc_normalize(a, b)
    if shape == "cancel":
        g = -f
    elif shape == "refold":
        # g = c/d - f by the reference, so that f + g cancels part of lcm(b, d)
        g = ratfunc_normalize(c * f.den - f.num * d, d * f.den)
    elif shape == "cross":
        # g's numerator shares the factors of f's denominator
        g = ratfunc_normalize(c * f.den, d)
    else:
        g = ratfunc_normalize(c, d)
    return f, g, draw(st.integers(0, fld.p - 1))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(pairs())
def test_arithmetic_matches_schoolbook_reference(case):
    f, g, k = case
    a, b, c, d = f.num, f.den, g.num, g.den
    assert f + g == ratfunc_normalize(a * d + c * b, b * d)
    assert f - g == ratfunc_normalize(a * d - c * b, b * d)
    assert g + f == f + g
    assert f * g == ratfunc_normalize(a * c, b * d)
    assert g * f == f * g
    assert f.scale(k) == ratfunc_normalize(a.scale(k), b)


def _fraction(draw, fld):
    """a/b reduced and nonzero, b shaped to reach each branch of ``partial``."""
    one = fld.const_poly(1)
    shape = draw(st.sampled_from(["one", "repeated", "pth-power", "free"]))
    if shape == "one":
        b = one
    elif shape == "repeated":
        s = _poly(draw, fld, nonzero=True, top=1)
        b = s * s * _poly(draw, fld, nonzero=True, top=1)
    elif shape == "pth-power":
        # u = c x^p + c0 plus a polynomial in y, so d_x u = 0: x^p + y and
        # kin, times a linear cofactor
        u = fld.monomial((fld.p,) + (0,) * (fld.nvars - 1), draw(st.integers(1, fld.p - 1)))
        u = u + fld.const_poly(draw(st.integers(0, fld.p - 1)))
        if fld.nvars == 2:
            u = u + MultiPoly(fld, {(0, e): c for (_, e), c in _poly(draw, fld).terms.items()})
        linear = {e: c for e, c in _poly(draw, fld, top=1).terms.items() if sum(e) < 2}
        b = u * MultiPoly(fld, linear) if linear else u
    else:
        b = _poly(draw, fld, nonzero=True)
    if draw(st.booleans()):
        a = _poly(draw, fld, nonzero=True, top=1).frobenius_power()
    else:
        a = _poly(draw, fld, nonzero=True)
    return ratfunc_normalize(a, b)


@st.composite
def fractions(draw):
    return _fraction(draw, _field(draw))


@st.composite
def quotients(draw):
    fld = _field(draw)
    f, g = _fraction(draw, fld), _fraction(draw, fld)
    if draw(st.booleans()):
        # g's numerator and denominator share factors with f's, so that f / g
        # cancels across both ways
        g = ratfunc_normalize(g.num * f.num, g.den * f.den)
    return f, g


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(fractions())
def test_partial_matches_quotient_rule_reference(f):
    a, b = f.num, f.den
    for i in range(f.field.nvars):
        assert partial(f, i) == ratfunc_normalize(a.partial(i) * b - a * b.partial(i), b * b)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(quotients())
def test_inverse_and_quotient_match_reference(case):
    f, g = case
    a, b, c, d = f.num, f.den, g.num, g.den
    assert f.inv() == ratfunc_normalize(b, a)
    assert f / g == ratfunc_normalize(a * d, b * c)


def _kernel_div(a, b):
    return MultiPoly(a.field, kernels.poly_exact_div(a.terms, b.terms, a.field.p))


def test_exact_division_by_divisors_of_higher_degree():
    # a constant or low-degree dividend over a divisor of higher degree:
    # the first quotient exponent is already negative, so each raises at
    # once, and each product divides back
    f5 = FunctionField.make(5, ["x"])
    g = FunctionField.make(3, ["x", "y"])
    cases = [
        (f5.const_poly(2), MultiPoly(f5, {(1,): 3, (0,): 4, (4,): 3})),
        (MultiPoly(g, {(3, 0): 1, (0, 3): 1}), MultiPoly(g, {(3, 3): 1, (0, 0): 1})),
        (MultiPoly(g, {(1, 0): 1}), MultiPoly(g, {(0, 2): 1, (1, 0): 1})),
    ]
    for a, b in cases:
        for div in (_reference_exact_div, fields.poly_exact_div, _kernel_div):
            with pytest.raises(ValueError):
                div(a, b)
            assert div(a * b, b) == a
    with pytest.raises(ZeroDivisionError):
        kernels.poly_exact_div({(1,): 1}, {}, 5)
    with pytest.raises(ZeroDivisionError):
        fields.poly_exact_div(f5.var_poly(0), f5.zero_poly())


@st.composite
def divisions(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    fld = FunctionField.make(p, ["x", "y", "z"][: draw(st.integers(1, 3))])
    shape = draw(st.sampled_from(["squared", "monomial", "constant", "free"]))
    if shape == "squared":
        s = _poly(draw, fld, nonzero=True)
        b = s * s * _poly(draw, fld, nonzero=True)
    elif shape == "monomial":
        b = _poly(draw, fld, nonzero=True)
        b = MultiPoly(fld, dict([next(iter(b.terms.items()))]))
    elif shape == "constant":
        b = fld.const_poly(draw(st.integers(1, p - 1)))
    else:
        b = _poly(draw, fld, nonzero=True)
    dividend = draw(st.sampled_from(["multiple", "plus-term", "zero", "low", "free"]))
    if dividend == "multiple":
        a = _poly(draw, fld) * b
    elif dividend == "plus-term":
        a = _poly(draw, fld) * b + _poly(draw, fld, nonzero=True, top=3)
    elif dividend == "zero":
        a = fld.zero_poly()
    elif dividend == "low":
        # of lower degree than most divisors, constants included
        a = _poly(draw, fld, nonzero=True, top=1)
    else:
        a = _poly(draw, fld, top=4)
    return a, b


def _outcome(div, a, b):
    try:
        return div(a, b)
    except ValueError:
        return "inexact"


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(divisions())
def test_exact_division_matches_schoolbook_reference(case):
    a, b = case
    want = _reference_exact_div(a * b, b)
    # a itself: exact when b divides it, inexact otherwise, in each
    expected = _outcome(_reference_exact_div, a, b)
    for div in (fields.poly_exact_div, _kernel_div):
        assert div(a * b, b) == want == a
        assert _outcome(div, a, b) == expected

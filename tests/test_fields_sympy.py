"""The field layer against sympy: ``poly_gcd`` against an independent gcd,
and the ``RatFunc`` field axioms with canonical results.

The draws stay at p in {2, 3, 5} with at most two variables at p = 5, and
three-variable fractions are drawn squarefree with at most two terms
above and below.  The primitive PRS in ``_prem`` can stall for minutes on
small inputs at p = 5 with three variables, and for seconds on sums and
products of three-variable fractions with squared variables or three
terms at p = 2 and 3; that is a known cost of that gcd, not something this
module sets out to find.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
sympy = pytest.importorskip("sympy")

from katoforms import FunctionField, MultiPoly, poly_gcd, ratfunc_normalize  # noqa: E402


@st.composite
def fields(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 2 if p == 5 else 3))
    return FunctionField.make(p, ["x", "y", "z"][:m])


def polys(draw, fld, nonzero=False, top=2, size=3):
    exps = st.tuples(*[st.integers(0, top)] * fld.nvars)
    terms = draw(
        st.dictionaries(exps, st.integers(1, fld.p - 1), min_size=int(nonzero), max_size=size)
    )
    return MultiPoly(fld, terms)


def to_sympy(a):
    gens = sympy.symbols(a.field.vars)
    return sympy.Poly.from_dict(dict(a.terms) or {(0,) * a.field.nvars: 0}, *gens,
                                modulus=a.field.p)


def from_sympy(poly, fld):
    # sympy keeps coefficients mod p in the symmetric range -(p-1)/2..(p-1)/2
    terms = {exp: int(c) % fld.p for exp, c in poly.as_dict().items()}
    return MultiPoly(fld, {exp: c for exp, c in terms.items() if c})


@st.composite
def gcd_cases(draw):
    fld = draw(fields())
    common = polys(draw, fld, nonzero=True)
    return polys(draw, fld) * common, polys(draw, fld) * common


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(gcd_cases())
def test_poly_gcd_matches_sympy(case):
    a, b = case
    g = poly_gcd(a, b)
    expected = from_sympy(to_sympy(a).gcd(to_sympy(b)), a.field)
    # a gcd is unique up to a unit; ours is the monic one
    assert g == expected.monic()
    assert g.is_zero() or g.leading()[1] == 1


@st.composite
def ratfunc_triples(draw):
    fld = draw(fields())
    top, size = (2, 3) if fld.nvars < 3 else (1, 2)

    def ratfunc():
        num = polys(draw, fld, top=top, size=size)
        return ratfunc_normalize(num, polys(draw, fld, nonzero=True, top=top, size=size))

    return fld, ratfunc(), ratfunc(), ratfunc()


def assert_canonical(f):
    assert f.den.leading()[1] == 1
    if f.is_zero():
        assert f.den == f.field.const_poly(1)
    else:
        assert to_sympy(f.num).gcd(to_sympy(f.den)).is_ground


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(ratfunc_triples())
def test_ratfunc_field_axioms(case):
    fld, a, b, c = case
    zero, one = fld.zero(), fld.one()
    results = [a + b, a * b, (a + b) + c, a * (b * c), a * b + a * c, a - b]
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    if not a.is_zero():
        inverse = a.inv()
        results.append(inverse)
        assert a * inverse == one
        assert b / a * a == b
    for f in results:
        assert_canonical(f)

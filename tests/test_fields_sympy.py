"""The field layer against sympy: ``poly_gcd`` against an independent gcd,
and the ``RatFunc`` field axioms with canonical results.

The draws stay at p in {2, 3, 5} with at most two variables at p = 5.
Three-variable fractions take the two-variable shape, exponents up to 2
and up to three terms above and below, and gcd cases include a factor
squared on one side.
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


def polys(draw, fld, nonzero=False):
    exps = st.tuples(*[st.integers(0, 2)] * fld.nvars)
    terms = draw(
        st.dictionaries(exps, st.integers(1, fld.p - 1), min_size=int(nonzero), max_size=3)
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
    a, b = polys(draw, fld) * common, polys(draw, fld) * common
    if draw(st.booleans()):
        # not squarefree: the common factor squared on one side
        a = a * common
    return a, b


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

    def ratfunc():
        return ratfunc_normalize(polys(draw, fld), polys(draw, fld, nonzero=True))

    return fld, ratfunc(), ratfunc(), ratfunc()


def assert_canonical(f, pieces):
    """f has a monic denominator prime to its numerator, checked by sympy.

    f.den must divide a product of powers of the non-constant ``pieces``; the
    loop checks that too, stripping from it every factor it shares with a
    piece.  A common factor of f.num and f.den then divides gcd(f.den, q)
    for some piece q, so only gcds against a piece are taken: sympy's gcd
    of two three-variable polynomials of degree 12 to 15 can take seconds,
    one against a piece of degree at most 2 in each variable mostly takes
    milliseconds.
    """
    assert f.den.leading()[1] == 1
    if f.is_zero():
        assert f.den == f.field.const_poly(1)
    if f.den.is_const():
        return
    num, rest = to_sympy(f.num), to_sympy(f.den)
    for q in map(to_sympy, pieces):
        if rest.is_ground:
            break
        g = rest.gcd(q)
        if not g.is_ground:
            assert num.gcd(g).is_ground
        while not g.is_ground:
            rest = rest.exquo(g)
            g = rest.gcd(q)
    assert rest.is_ground


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(ratfunc_triples())
def test_ratfunc_field_axioms(case):
    fld, a, b, c = case
    zero, one = fld.zero(), fld.one()
    results = [a + b, a * b, (a + b) + c, a * (b * c), a * b + a * c, a - b]
    # every denominator above divides a product of powers of these
    dens = [f.den for f in (a, b, c) if not f.den.is_const()]
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    if not a.is_zero():
        inverse = a.inv()
        assert_canonical(inverse, [] if a.num.is_const() else [a.num])
        assert a * inverse == one
        assert b / a * a == b
    for f in results:
        assert_canonical(f, dens)

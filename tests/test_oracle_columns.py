"""The oracle's packed system: closed-form columns against forms.wp and
forms.d, and the solver on constructed members of the candidate span."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from katoforms import (  # noqa: E402
    DiffForm,
    FunctionField,
    MultiPoly,
    SearchBounds,
    d,
    ratfunc_normalize,
    solve_wp_plus_d,
    verify_certificate,
    wp,
)
from katoforms.fields import poly_exact_div  # noqa: E402
from katoforms.oracle import Cofactors, Packing, d_column, wp_column  # noqa: E402


@st.composite
def column_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    fld = FunctionField.make(p, ["x", "y", "z"][:m])
    exps = st.tuples(*[st.integers(0, 3)] * m)

    def poly():
        terms = draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=3))
        return MultiPoly(fld, terms)

    mono = fld.monomial(draw(exps), draw(st.integers(1, p - 1)))
    fn = ratfunc_normalize(mono, poly())
    # any multiple of b^p serves as the common denominator
    common = fn.den ** p * poly()
    kind = draw(st.sampled_from(["wp", "d"]))
    degree = draw(st.integers(0, m if kind == "wp" else m - 1))
    idx = tuple(sorted(draw(st.permutations(range(m)))[:degree]))
    return fld, kind, idx, fn, common


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(column_cases())
def test_closed_form_column_matches_forms(case):
    fld, kind, idx, fn, common = case
    basis = DiffForm.from_coeffs(fld, len(idx), {idx: fn})
    image = wp(basis) if kind == "wp" else d(basis)
    expected = {}
    for jdx, c in image.coeffs.items():
        cleared = c.num * poly_exact_div(common, c.den)
        for exp, v in cleared.terms.items():
            expected[(jdx, exp)] = v
    column = wp_column if kind == "wp" else d_column
    ((k, c),) = fn.num.terms.items()
    cand = (k, c, fn.den)
    packing = Packing.for_system(common, [cand])
    packed = column(idx, cand, Cofactors(common, fn.den, packing), packing)
    assert {packing.unpack(key): v for key, v in packed.items()} == expected


@st.composite
def member_cases(draw):
    """wp(u) + d(eta) with u, eta in the candidate span, and a monomial
    whose exponent lies beyond every digit a column can reach."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, m))
    fld = FunctionField.make(p, ["x", "y", "z"][:m])
    exps = st.tuples(*[st.integers(0, 2)] * m)
    # denominators with any leading coefficient (monic only over F_2)
    dens = [fld.const_poly(draw(st.integers(1, p - 1)))]
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=2))
        dens.append(MultiPoly(fld, terms))
    bounds = SearchBounds(draw(st.integers(0, 2)), tuple(dens))
    candidates = bounds.candidate_functions(fld)

    def span_form(degree):
        coeffs = {}
        idxs = list(itertools.combinations(range(m), degree))
        for _ in range(draw(st.integers(1, 2))):
            idx = draw(st.sampled_from(idxs))
            c = draw(st.sampled_from(candidates)).scale(draw(st.integers(1, p - 1)))
            coeffs[idx] = coeffs[idx] + c if idx in coeffs else c
        return DiffForm.from_coeffs(fld, degree, coeffs)

    omega = wp(span_form(n))
    if n >= 1:
        omega = omega + d(span_form(n - 1))
    # D = L^p has degree at most p * sum(deg b), a column's shift at most
    # p * (bound + 1), so x_m^reach can appear in no column
    reach = p * (sum(b.total_degree() for b in dens) + bounds.max_degree + 1)
    far = [0] * m
    far[-1] = reach + draw(st.integers(0, 2 * reach))
    slot = draw(st.sampled_from(list(itertools.combinations(range(m), n))))
    beyond = DiffForm.from_coeffs(
        fld, n, {slot: ratfunc_normalize(fld.monomial(tuple(far)), fld.const_poly(1))}
    )
    return omega, beyond, bounds


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(member_cases())
def test_constructed_members_always_found(case):
    omega, beyond, bounds = case
    cert = solve_wp_plus_d(omega, bounds)
    assert cert is not None
    assert verify_certificate(omega, DiffForm.zero(omega.field, omega.degree), cert)
    # the target's numerators now exceed every column digit: absent, not aliased
    assert solve_wp_plus_d(omega + beyond, bounds) is None

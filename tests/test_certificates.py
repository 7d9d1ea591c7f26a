"""Congruence certificates: verification and the constructive rewritings."""

import hashlib
import random

import pytest

from katoforms import (
    BadExponent,
    Certificate,
    CertificateFailed,
    DegreeMismatch,
    DiffForm,
    FieldMismatch,
    FunctionField,
    NotExact,
    congruence_witness,
    d,
    dlog,
    exponent_reduction,
    integrate,
    monomial_split_certificate,
    power_certificate,
    sp,
    sp_differential_shift,
    sp_iter,
    verify_certificate,
    wp,
)
from katoforms.certificates import monomial
from katoforms.forms import random_form_rng


def test_verify_basic_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    zero1 = DiffForm.zero(f2x, 1)
    # wp(dx) = (x+1) dx
    cert = Certificate(u=dx, eta=DiffForm.zero(f2x, 0), field=f2x)
    assert verify_certificate(dx.scale(x + f2x.one()), zero1, cert)
    # trivial
    assert verify_certificate(dx, dx, Certificate.trivial(f2x, 1))
    # x dx = wp(dx) + d(x): a non-exact form with trivial class
    cert = Certificate(u=dx, eta=DiffForm.scalar(f2x, x), field=f2x)
    assert verify_certificate(dx.scale(x), zero1, cert)
    # and the checker refutes wrong claims
    assert not verify_certificate(dx.scale(x), zero1, Certificate.trivial(f2x, 1))


def test_verify_degree_mismatch(f2xy):
    with pytest.raises(DegreeMismatch):
        verify_certificate(
            DiffForm.zero(f2xy, 1),
            DiffForm.zero(f2xy, 2),
            Certificate.trivial(f2xy, 1),
        )


def _subtract_and_normalize(lhs, rhs, cert):
    """The checker as form arithmetic: every sum a reduced fraction, then a
    zero test of the normalized difference."""
    return (lhs - rhs - wp(cert.u) - d(cert.eta)).is_zero()


def _with_unit_change(form, rng):
    """form with one coefficient (or a new one) changed by a nonzero constant."""
    field = form.field
    idx = rng.choice(sorted(form.coeffs)) if form.coeffs else tuple(range(form.degree))
    change = DiffForm.from_coeffs(field, form.degree, {idx: field.const(rng.randint(1, field.p - 1))})
    return form + change


def test_verify_agrees_with_subtract_and_normalize():
    # seeded wp(u) + d(eta) triples and their mutations: the exact zero test
    # accepts and rejects exactly what the normalized difference does
    rng = random.Random(27)
    accepted = rejected = 0
    for p, names in [(2, "xy"), (3, "xy"), (5, "xy"), (2, "xyz"), (3, "xyz"), (5, "xyz")]:
        fld = FunctionField.make(p, list(names))
        pool = [fld.const_poly(1), fld.var_poly(0), fld.var_poly(1), (fld.var(0) + fld.one()).num]
        for n in (1, 2):
            for _ in range(4):
                u = random_form_rng(fld, n, 2, 2, rng, pool)
                eta = random_form_rng(fld, n - 1, 2, 2, rng, pool)
                rhs = random_form_rng(fld, n, 2, 2, rng, pool)
                lhs = rhs + wp(u) + d(eta)
                noise = random_form_rng(fld, n, 2, 1, rng, pool)
                cert = Certificate(u=u, eta=eta, field=fld)
                bad_u = Certificate(u=_with_unit_change(u, rng), eta=eta, field=fld)
                for triple in [
                    (lhs, rhs, cert),
                    (lhs + noise, rhs, cert),
                    (lhs, rhs + noise, cert),
                    (lhs, rhs, bad_u),
                    (lhs, lhs, Certificate.trivial(fld, n)),
                ]:
                    expected = _subtract_and_normalize(*triple)
                    assert verify_certificate(*triple) == expected, triple
                    accepted += expected
                    rejected += not expected
    assert accepted >= 48 and rejected >= 48, (accepted, rejected)


def test_verify_an_index_with_four_distinct_denominators(f3xy):
    x, y = f3xy.var(0), f3xy.var(1)
    one = f3xy.one()
    dx = DiffForm.basis(f3xy, (0,))
    u = dx.scale((x + one).inv())
    eta = DiffForm.scalar(f3xy, (x + y).inv())
    rhs = dx.scale(y.inv())
    lhs = rhs + wp(u) + d(eta)
    dens = [form.coeffs[(0,)].den for form in (lhs, rhs, wp(u), d(eta))]
    assert len(set(dens)) == 4, dens
    cert = Certificate(u=u, eta=eta, field=f3xy)
    assert verify_certificate(lhs, rhs, cert)
    for wrong in (rhs + dx, rhs.scale(x), rhs + dx.scale((x + y).inv())):
        assert not verify_certificate(lhs, wrong, cert)


def test_verify_refuses_a_field_slot_over_another_field(f2xy):
    f3xy = FunctionField.make(3, ["x", "y"])
    dx2, dx3 = DiffForm.basis(f2xy, (0,)), DiffForm.basis(f3xy, (0,))
    zero2, zero3 = DiffForm.zero(f2xy, 0), DiffForm.zero(f3xy, 0)
    # wp(dx) = (x + 1) dx over F2(x,y): true in every slot but the odd one
    lhs = dx2.scale(f2xy.var(0) + f2xy.one())
    rhs = DiffForm.zero(f2xy, 1)
    for lhs_, rhs_, cert in [
        (lhs, rhs, Certificate(u=dx2, eta=zero2, field=f3xy)),
        (lhs, rhs, Certificate(u=dx3, eta=zero2, field=f2xy)),
        (lhs, rhs, Certificate(u=dx2, eta=zero3, field=f2xy)),
        (lhs, DiffForm.zero(f3xy, 1), Certificate(u=dx2, eta=zero2, field=f2xy)),
    ]:
        with pytest.raises(FieldMismatch):
            verify_certificate(lhs_, rhs_, cert)
    assert verify_certificate(lhs, rhs, Certificate(u=dx2, eta=zero2, field=f2xy))
    # a degree mismatch is still reported first
    with pytest.raises(DegreeMismatch):
        verify_certificate(lhs, DiffForm.zero(f3xy, 2), Certificate(u=dx2, eta=zero2, field=f3xy))


def test_power_certificate_examples(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    dy = DiffForm.basis(f2xy, (1,))
    v = dy.scale(x)
    rhs, cert = power_certificate(v, 1)
    assert rhs == dy.scale(x * x * y)
    assert cert.u == v
    assert verify_certificate(rhs, v, cert)
    rhs0, cert0 = power_certificate(v, 0)
    assert rhs0 == v and cert0.u.is_zero() and cert0.eta.is_zero()
    lg = dlog(x)
    rhs3, cert3 = power_certificate(lg, 3)
    assert rhs3 == lg
    assert verify_certificate(rhs3, lg, cert3)


def test_power_certificate_random(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        for _ in range(60):
            v = random_form_rng(fld, rng.randint(0, 2), 2, 2, rng)
            i = rng.randint(0, 3)
            rhs, cert = power_certificate(v, i)
            assert rhs == sp_iter(v, i)
            assert verify_certificate(rhs, v, cert)


def test_monomial_split_examples(f2xy, f3xy):
    x, y = f2xy.var(0), f2xy.var(1)
    v = DiffForm.scalar(f2xy, y)
    rhs, cert = monomial_split_certificate([x], [2], v)
    assert rhs.is_zero()
    assert cert.eta == DiffForm.scalar(f2xy, x * x * y)
    assert verify_certificate(d(v).scale(x * x), rhs, cert)
    x3, y3 = f3xy.var(0), f3xy.var(1)
    v3 = DiffForm.scalar(f3xy, y3)
    rhs, cert = monomial_split_certificate([x3], [1], v3)
    assert rhs == d(v3).scale(x3)
    assert cert.u.is_zero() and cert.eta.is_zero()


def test_monomial_split_requires_positive_exponents(f2xy):
    with pytest.raises(BadExponent):
        monomial_split_certificate([f2xy.var(0)], [0], DiffForm.scalar(f2xy, f2xy.one()))


def test_monomial_split_random(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y", "z"])
        pool = [fld.var(0), fld.var(1), fld.var(0) + fld.var(1), fld.var(2)]
        for _ in range(60):
            r = rng.randint(1, 3)
            bs = [rng.choice(pool) for _ in range(r)]
            ks = [rng.randint(1, 4) for _ in range(r)]
            v = random_form_rng(fld, rng.randint(0, 1), 2, 2, rng)
            rhs, cert = monomial_split_certificate(bs, ks, v)
            lhs = d(v).scale(monomial(fld, bs, ks))
            assert verify_certificate(lhs, rhs, cert)
            assert cert.u.is_zero()


def test_sp_differential_shift(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    assert sp_differential_shift(x).is_zero()
    assert sp_differential_shift(x * x).is_zero()
    assert sp_differential_shift(x + y) == x * y
    # defining identity
    for b in [x + y, x * y + x, (x + y) / y]:
        db = d(DiffForm.scalar(f2xy, b))
        shift = sp_differential_shift(b)
        assert sp(db) == db.scale(b ** (f2xy.p - 1)) + d(DiffForm.scalar(f2xy, shift))


def test_exponent_reduction_trivial_case(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    v = DiffForm.scalar(f2xy, y)
    red = exponent_reduction([x], [1], 1, v)
    assert red.q == (1,) and red.omega == v and red.single_level
    assert not red.linear_parts
    assert red.certificate.u.is_zero() and red.certificate.eta.is_zero()


def test_exponent_reduction_basic_example(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    v = DiffForm.scalar(f2xy, y)
    red = exponent_reduction([x], [2], 1, v)
    assert red.q == (0,)
    assert red.omega == DiffForm.scalar(f2xy, x * y)
    assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)


def test_exponent_reduction_one_pass(f2xyz):
    x, y, z = (f2xyz.var(i) for i in range(3))
    red = exponent_reduction([x, y], [3, 0], 1, DiffForm.scalar(f2xyz, z))
    assert red.q == (1, 0)
    assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)


def test_exponent_reduction_randomized(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        pool = [fld.var(0), fld.var(1), fld.var(0) + fld.var(1), fld.var(0) * fld.var(1)]
        for _ in range(60):
            r = rng.randint(1, 2)
            bs = [rng.choice(pool) for _ in range(r)]
            t = rng.randint(1, 2)
            ks = [rng.randint(0, p ** t + p) for _ in range(r)]
            v = random_form_rng(fld, rng.randint(0, 1), 2, 2, rng)
            red = exponent_reduction(bs, ks, t, v)
            assert red.q == tuple(k % p ** t for k in ks)
            assert all(j <= t for j in red.levels)
            assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)
            assert red.certificate.u.is_zero()


def test_exponent_reduction_variable_bases_stay_single_level(rng):
    # for p-basis variables the shift corrections vanish and the output is
    # the plain single-(q, omega) shape
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y", "z"])
        for _ in range(30):
            r = rng.randint(1, 2)
            idxs = rng.sample(range(3), r)
            bs = [fld.var(i) for i in idxs]
            t = rng.randint(1, 2)
            ks = [rng.randint(0, 2 * p ** t) for _ in range(r)]
            v = random_form_rng(fld, 0, 2, 2, rng)
            red = exponent_reduction(bs, ks, t, v)
            assert red.single_level
            assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)


def test_congruence_witness_members(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        for n in (1, 2):
            for _ in range(25):
                u = random_form_rng(fld, n, 2, 2, rng)
                eta = random_form_rng(fld, n - 1, 2, 2, rng)
                w = wp(u) + d(eta)
                cert = congruence_witness(w)
                assert cert is not None
                assert verify_certificate(w, DiffForm.zero(fld, n), cert)


def test_congruence_witness_nonmembers(f2x, f2xy):
    assert congruence_witness(dlog(f2x.var(0))) is None
    assert congruence_witness(dlog(f2xy.var(0)).scale(f2xy.var(1))) is None


def test_congruence_witness_stops_on_a_repeated_form(f2x, monkeypatch):
    # wp(dlog x) = 0, so the running form comes back unchanged after one
    # step; the search stops there instead of running to its iteration limit
    import katoforms.certificates as certificates

    calls = []
    real = certificates.cartier_raw
    monkeypatch.setattr(
        certificates, "cartier_raw", lambda w: calls.append(w) or real(w)
    )
    assert congruence_witness(dlog(f2x.var(0))) is None
    assert len(calls) == 1


def test_unverified_witness_is_refused(f2x, monkeypatch):
    # the witness loop re-checks its own answer, also under python -O: a
    # certificate that fails the check is a fault, not "not found"
    monkeypatch.setattr("katoforms.certificates.verify_certificate", lambda *a: False)
    x = f2x.var(0)
    with pytest.raises(CertificateFailed):
        congruence_witness(wp(DiffForm.basis(f2x, (0,)).scale(x)))


def test_congruence_witness_integrates_without_a_closedness_check(rng, monkeypatch):
    # every form the loop integrates is closed, d(cur) and the final cur,
    # so it takes no d inside the calculus; the public integrate still
    # refuses a form that is not closed
    import katoforms.forms as forms

    calls = []
    real = forms.d
    monkeypatch.setattr(forms, "d", lambda w: calls.append(w) or real(w))
    fld = FunctionField.make(3, ["x", "y"])
    for _ in range(10):
        w = wp(random_form_rng(fld, 1, 2, 2, rng)) + d(random_form_rng(fld, 0, 2, 2, rng))
        assert congruence_witness(w) is not None
    assert calls == []
    with pytest.raises(NotExact):
        integrate(DiffForm.basis(fld, (0,)).scale(fld.var(1)))
    assert len(calls) == 1


def test_witnesses_with_rational_coefficients(rng):
    # denominators with several variables exercise the Frobenius clearing;
    # the Cartier iteration is incomplete here, so the bounded search backs
    # it up — between them every constructed member must be witnessed
    from katoforms import SearchBounds, integrate, solve_wp_plus_d

    for p in (2, 3, 5):
        fld = FunctionField.make(p, ["x", "y"])
        x, y = fld.var(0), fld.var(1)
        dens = [fld.const_poly(1), x.num, (x + y).num, (x * y).num]
        bounds = SearchBounds(5, tuple(dens))
        for _ in range(8):
            u = random_form_rng(fld, 1, 2, 2, rng, den_pool=dens)
            eta = random_form_rng(fld, 0, 2, 2, rng, den_pool=dens)
            w = wp(u) + d(eta)
            cert = congruence_witness(w) or solve_wp_plus_d(w, bounds)
            assert cert is not None
            assert verify_certificate(w, DiffForm.zero(fld, 1), cert)
        for _ in range(20):
            eta = random_form_rng(fld, 1, 2, 2, rng, den_pool=dens)
            form = d(eta)
            assert d(integrate(form)) == form


PINNED_CALCULUS_DIGEST = "75b8875cd7c0ac55d9fc00873a5b0f3b912164d8f8373745a4b05b3c2c3860d0"


def _pinned_calculus_lines():
    """Printed outputs of the calculus on a seeded family over F_p(x, y),
    p = 2, 3, 5: witnesses (None included), antiderivatives, Cartier images,
    Frobenius grades, exponent reductions and monomial splits."""
    from katoforms import cartier_raw, grade_decompose, integrate
    from katoforms.sexpr import print_certificate, print_form

    lines = []
    for p in (2, 3, 5):
        rng = random.Random(2500 + p)
        fld = FunctionField.make(p, ["x", "y"])
        x, y = fld.var(0), fld.var(1)
        dens = [fld.const_poly(1), x.num, (x + y).num]
        for n in (1, 2):
            for _ in range(2):
                u = random_form_rng(fld, n, 2, 2, rng, den_pool=dens)
                eta = random_form_rng(fld, n - 1, 2, 2, rng, den_pool=dens)
                other = random_form_rng(fld, n, 2, 2, rng, den_pool=dens)
                for form in (wp(u) + d(eta), other):
                    cert = congruence_witness(form)
                    lines.append("none" if cert is None else print_certificate(cert))
                    lines.append(print_form(cartier_raw(form)))
                    for j, piece in sorted(grade_decompose(form).items()):
                        lines.append(f"{j} {print_form(piece)}")
                lines.append(print_form(integrate(d(u))))
        pool = [x, y, x + y, x * y]
        for _ in range(4):
            r = rng.randint(1, 2)
            bs = [rng.choice(pool) for _ in range(r)]
            t = rng.randint(1, 2)
            ks = [rng.randint(0, p**t + p) for _ in range(r)]
            v = random_form_rng(fld, rng.randint(0, 1), 2, 2, rng)
            red = exponent_reduction(bs, ks, t, v)
            lines.extend(f"level {j} {print_form(w)}" for j, w in sorted(red.levels.items()))
            lines.extend(f"linear {i} {print_form(w)}" for i, w in red.linear_parts)
            lines.append(print_certificate(red.certificate))
            rhs, cert = monomial_split_certificate(bs, [k + 1 for k in ks], v)
            lines.append(print_form(rhs))
            lines.append(print_certificate(cert))
    return lines


def test_pinned_calculus_outputs():
    # the calculus is a function of its inputs alone: any change to a
    # witness, an antiderivative, a Cartier image, a grade or a reduction
    # shows up here
    h = hashlib.sha256()
    for line in _pinned_calculus_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == PINNED_CALCULUS_DIGEST

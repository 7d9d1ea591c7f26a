"""Deeper adversarial cases for the intricate code paths."""

import random

from katoforms import (
    AdaptedData,
    DiffForm,
    FunctionField,
    GeneratorSpec,
    build_adapted,
    d,
    exponent_reduction,
    integrate,
    kernel_generators,
    make_instance,
    rebase_generator,
    restrict,
    sp,
    vanish_certificate,
    verify_certificate,
    wedge,
)
from katoforms.forms import random_form_rng
from katoforms.witt import hyperbolicity_certificate, quad_kernel_generators


def test_exponent_reduction_level_three():
    rng = random.Random(77)
    fld = FunctionField.make(2, ["x", "y"])
    x, y = fld.var(0), fld.var(1)
    for bs, ks in [
        ([x], [9]),
        ([x + y], [11]),
        ([x, x + y], [8, 5]),
        ([x * y], [13]),
    ]:
        v = random_form_rng(fld, 0, 2, 2, rng)
        red = exponent_reduction(bs, ks, 3, v)
        assert red.q == tuple(k % 8 for k in ks)
        assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)


def test_exponent_reduction_level_three_p3():
    rng = random.Random(78)
    fld = FunctionField.make(3, ["x", "y"])
    x, y = fld.var(0), fld.var(1)
    v = random_form_rng(fld, 0, 1, 1, rng)
    red = exponent_reduction([x + y], [28], 3, v)
    assert red.q == (1,)
    assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)


def test_integrate_top_degree():
    rng = random.Random(79)
    fld = FunctionField.make(2, ["x", "y", "z"])
    for _ in range(20):
        eta = random_form_rng(fld, 2, 3, 2, rng)
        omega = d(eta)  # top-degree exact 3-form
        assert d(integrate(omega)) == omega


def test_restrict_commutes_with_sp_adapted():
    # the identity behind the vanishing-witness construction
    rng = random.Random(80)
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y", "z"])
        ext = build_adapted(fld, AdaptedData(((0, 2), (2, 1))))
        for _ in range(25):
            w = random_form_rng(fld, rng.randint(0, 2), 2, 2, rng)
            assert restrict(sp(w), ext) == sp(restrict(w, ext))


def test_rebase_round_trip_class():
    # promote then demote lands back on the original class, certifiably
    rng = random.Random(81)
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        x = fld.var(0)
        for m, t, k in [(2, 1, (1,)), (3, 2, (p,))]:
            v = random_form_rng(fld, 0, 2, 2, rng)
            g = make_instance(GeneratorSpec(((x, m),), 1, (t, k)), v)
            up, cert_up = rebase_generator(g, ("promote", 0))
            assert len(up) == 1
            down, cert_down = rebase_generator(up[0], ("demote", 0))
            total = DiffForm.zero(fld, 1)
            for o in down:
                total = total + o.value
                assert o.spec.pairs == ((x, m),)
            assert verify_certificate(up[0].value, total, cert_down)
            # compose: g.value == total modulo wp + d
            assert verify_certificate(g.value, total, cert_up + cert_down)


def test_hyperbolicity_with_deeper_twist():
    # m = 3 admits t = 2 patterns: the Arf twist needs h = w + w^2
    fld = FunctionField.make(2, ["x", "y"])
    x, y = fld.var(0), fld.var(1)
    ext = build_adapted(fld, AdaptedData(((0, 3),)))
    gens = quad_kernel_generators(((x, 3),), [y, fld.one()])
    assert any(g.kind == "power" and g.t == 2 for g in gens)
    for g in gens:
        assert hyperbolicity_certificate(g, ext).verify()


def test_vanish_certificates_in_degree_two_three_vars():
    rng = random.Random(82)
    fld = FunctionField.make(2, ["x", "y", "z"])
    data = ((0, 2), (1, 1))
    pairs = tuple((fld.var(i), m) for i, m in data)
    ext = build_adapted(fld, AdaptedData(data))
    insts = [
        DiffForm.basis(fld, (2,)).scale(fld.var(1)),
        wedge(DiffForm.scalar(fld, fld.var(0)), DiffForm.basis(fld, (2,))),
        random_form_rng(fld, 1, 2, 2, rng),
    ]
    for g in kernel_generators(fld, pairs, 2, insts):
        cert = vanish_certificate(g, ext)
        assert verify_certificate(
            restrict(g.value, ext), DiffForm.zero(ext.target, 2), cert
        )

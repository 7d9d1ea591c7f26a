"""Purely inseparable extensions: validation, restriction, kernel tests."""

import pytest

from katoforms import (
    AdaptedData,
    CertificateFailed,
    DiffForm,
    FieldMismatch,
    FunctionField,
    InsepCert,
    NotAdapted,
    build_adapted,
    build_embedding,
    d,
    extension_from_json,
    extension_to_json,
    dlog,
    nu_kernel_member,
    omega_kernel_member,
    pth_root,
    restrict,
    square_class_kernel,
    square_class_kernel_oracle,
    wedge,
)
from katoforms.fields import random_ratfunc
from katoforms.forms import random_form_rng
from katoforms.oracle import SearchBounds, artin_schreier_search


def _sect4():
    """E = F(Z^(1/4), (X^2 Z + Y^2)^(1/4)) as coordinates (X, w, u)."""
    source = FunctionField.make(2, ["X", "Y", "Z"])
    target = FunctionField.make(2, ["X", "w", "u"])
    X, Y, Z = (source.var(i) for i in range(3))
    Xe, w, u = (target.var(i) for i in range(3))
    images = (Xe, w * w + Xe * u * u, u ** 4)
    certs = (
        InsepCert("X", 0, X),
        InsepCert("w", 2, X * X * Z + Y * Y),
        InsepCert("u", 2, Z),
    )
    return build_embedding(source, target, images, certs)


def test_build_adapted_examples(f2xy):
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    assert ext.images[0] == ext.target.var(0) ** 4
    assert ext.images[1] == ext.target.var(1)
    assert ext.exponent == 2
    f3 = FunctionField.make(3, ["x"])
    ext3 = build_adapted(f3, AdaptedData(((0, 1),)))
    assert ext3.images[0] == ext3.target.var(0) ** 3
    both = build_adapted(f2xy, AdaptedData(((0, 1), (1, 2))))
    assert both.images[0] == both.target.var(0) ** 2
    assert both.images[1] == both.target.var(1) ** 4


def test_degree_eight_embedding_accepted():
    ext = _sect4()
    assert ext.exponent == 2
    # w^4 = phi(X^2 Z + Y^2) holds: X^2 u^4 + (w^2 + X u^2)^2 = w^4
    X = ext.source.var(0)
    Z = ext.source.var(2)
    Y = ext.source.var(1)
    assert ext.apply(X * X * Z + Y * Y) == ext.target.var(1) ** 4


def test_identity_embedding_accepted(f2xy):
    certs = tuple(InsepCert(v, 0, f2xy.var(i)) for i, v in enumerate(f2xy.vars))
    ext = build_embedding(f2xy, f2xy, (f2xy.var(0), f2xy.var(1)), certs)
    w = DiffForm.basis(f2xy, (0, 1))
    assert restrict(w, ext) == w


def test_bad_certificate_rejected():
    source = FunctionField.make(2, ["X", "Y", "Z"])
    target = FunctionField.make(2, ["X", "w", "u"])
    X, Y, Z = (source.var(i) for i in range(3))
    Xe, w, u = (target.var(i) for i in range(3))
    images = (Xe, w * w + Xe * u * u, u ** 4)
    certs = (
        InsepCert("X", 0, X),
        InsepCert("w", 1, Z),  # wrong witness
        InsepCert("u", 2, Z),
    )
    with pytest.raises(CertificateFailed):
        build_embedding(source, target, images, certs)
    # a target variable without any certificate is rejected as well
    with pytest.raises(CertificateFailed):
        build_embedding(source, target, images, certs[:1])


def test_restrict_examples(f2xy):
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    dx, dy = DiffForm.basis(f2xy, (0,)), DiffForm.basis(f2xy, (1,))
    assert restrict(dx, ext).is_zero()
    assert restrict(dy, ext) == DiffForm.basis(ext.target, (1,))
    sect4 = _sect4()
    dXdY = DiffForm.basis(sect4.source, (0, 1))
    assert restrict(dXdY, sect4).is_zero()


def test_restrict_functorial(f2xyz, rng):
    ext = build_adapted(f2xyz, AdaptedData(((0, 2), (1, 1))))
    for _ in range(40):
        a = random_form_rng(f2xyz, 1, 2, 2, rng)
        b = random_form_rng(f2xyz, 1, 2, 2, rng)
        assert restrict(wedge(a, b), ext) == wedge(restrict(a, ext), restrict(b, ext))
        assert restrict(d(a), ext) == d(restrict(a, ext))


def test_kernel_member_examples(f2xyz):
    data = AdaptedData(((0, 2),))
    dxdy = DiffForm.basis(f2xyz, (0, 1))
    dydz = DiffForm.basis(f2xyz, (1, 2))
    assert omega_kernel_member(dxdy, data)
    assert not omega_kernel_member(dydz, data)
    # the degree-8 example: dX ^ dY is not in dZ ^ Omega^1
    sect4_source = FunctionField.make(2, ["X", "Y", "Z"])
    dXdY = DiffForm.basis(sect4_source, (0, 1))
    assert not omega_kernel_member(dXdY, AdaptedData(((2, 2),)))


def test_kernel_member_needs_adapted():
    sect4 = _sect4()
    dXdY = DiffForm.basis(sect4.source, (0, 1))
    with pytest.raises(NotAdapted):
        omega_kernel_member(dXdY, sect4)


def test_kernel_equivalence_random(rng):
    fld = FunctionField.make(2, ["x", "y", "z"])
    data = AdaptedData(((0, 2), (1, 1)))
    ext = build_adapted(fld, data)
    for _ in range(120):
        n = rng.randint(0, 3)
        w = random_form_rng(fld, n, 2, 2, rng)
        assert omega_kernel_member(w, data) == restrict(w, ext).is_zero()


def test_nu_kernel_member(f2xyz):
    x, y, z = (f2xyz.var(i) for i in range(3))
    data = AdaptedData(((0, 1),))
    assert nu_kernel_member(dlog(x), data)
    data2 = AdaptedData(((0, 1), (1, 1)))
    assert not nu_kernel_member(dlog(z), data2)
    assert nu_kernel_member(dlog(x * y), data2)


def test_square_class_kernel_examples(f2xyz):
    x, y, z = (f2xyz.var(i) for i in range(3))
    assert square_class_kernel(x, AdaptedData(((0, 1),)))
    assert not square_class_kernel(z, AdaptedData(((0, 1),)))
    assert square_class_kernel(x * y * y, AdaptedData(((0, 2),)))


def test_square_class_kernel_cross_check(f2xyz, rng):
    data = AdaptedData(((0, 1), (1, 2)))
    ext = build_adapted(f2xyz, data)
    for _ in range(60):
        f = random_ratfunc(f2xyz, rng, 3, 3)
        assert square_class_kernel(f, data) == square_class_kernel_oracle(f, ext)


def test_json_round_trip(f2xy):
    for ext in [build_adapted(f2xy, AdaptedData(((0, 2), (1, 1)))), _sect4()]:
        text = extension_to_json(ext)
        back = extension_from_json(text)
        assert extension_to_json(back) == text
        assert back.adapted == ext.adapted


def test_wp_descent_property(rng):
    # witnesses over E for source elements descend to F within the same bounds
    fld = FunctionField.make(2, ["y"])
    ext = build_adapted(fld, AdaptedData(((0, 1),)))
    yv = fld.var(0)
    bounds_f = SearchBounds(6, (fld.const_poly(1), yv.num))
    uvar = ext.target.var(0)
    bounds_e = SearchBounds(6, (ext.target.const_poly(1), uvar.num))
    for _ in range(25):
        if rng.random() < 0.6:
            f = random_ratfunc(fld, rng, 2, 2, [fld.const_poly(1), yv.num])
            x = f * f - f  # guaranteed wp-image over F
        else:
            x = random_ratfunc(fld, rng, 3, 2, [fld.const_poly(1), yv.num])
        found_e = artin_schreier_search(ext.apply(x), bounds_e) is not None
        found_f = artin_schreier_search(x, bounds_f) is not None
        if found_e:
            assert found_f


def test_pth_root_descends_through_adapted(f2xy, rng):
    # restricting never creates new p-th powers outside the distinguished span
    data = AdaptedData(((0, 1),))
    ext = build_adapted(f2xy, data)
    for _ in range(40):
        f = random_ratfunc(f2xy, rng, 2, 2)
        if pth_root(f) is not None:
            assert pth_root(ext.apply(f)) is not None


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("data", [((0, 2), (1, 1)), ((0, 2),)])
def test_root_is_the_p_m_th_root_of_the_image(p, data, rng):
    fld = FunctionField.make(p, ["x", "y"])
    ext = build_adapted(fld, AdaptedData(data))
    for i, m in data:
        b = fld.var(i)
        root = ext.root(b, m)
        assert root == ext.target.var(i)
        assert root ** (p**m) == ext.apply(b)
        # any p^m-th power multiple of the datum has its root too
        c = random_ratfunc(fld, rng, 2, 2)
        if not c.is_zero():
            assert ext.root(b * c ** (p**m), m) == root * ext.apply(c)
        # no p^(m+1)-th root
        assert ext.root(b, m + 1) is None
    if len(data) == 1:
        assert ext.root(fld.var(1), 1) is None
    with pytest.raises(FieldMismatch):
        ext.root(FunctionField.make(p, ["x", "y", "w"]).var(0), 1)


def test_apply_refuses_elements_of_another_field(f2xy):
    # over F3 the 2 of 2x + y is no zero; mapping it by position would drop it
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    f3xy = FunctionField.make(3, ["x", "y"])
    x, y = f3xy.var(0), f3xy.var(1)
    with pytest.raises(FieldMismatch):
        ext.apply(x + x + y)


def test_restrict_refuses_forms_of_another_field(f2xy):
    # the fault apply reports for an element, for a form and the zero form too
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    f3xy = FunctionField.make(3, ["x", "y"])
    for omega in (dlog(f3xy.var(0) + f3xy.var(1)), DiffForm.zero(f3xy, 1)):
        with pytest.raises(FieldMismatch):
            restrict(omega, ext)

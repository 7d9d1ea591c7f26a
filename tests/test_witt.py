"""Characteristic-2 quadratic/bilinear layer."""

import sys
from collections import Counter

import pytest

from katoforms import (
    AdaptedData,
    BadExponent,
    BilForm,
    CertificateFailed,
    DiffForm,
    FieldMismatch,
    FunctionField,
    GeneratorSpec,
    HyperbolicityChain,
    IsometryCert,
    LagrangianCert,
    PfisterSymbol,
    QuadForm,
    Singular,
    arf,
    bilinear_kernel_generators,
    build_adapted,
    dlog,
    hyperbolic_lagrangian,
    hyperbolicity_certificate,
    is_isometry,
    kato_e,
    kato_f,
    lagrangian_check,
    nu_member,
    pfister_bil,
    pfister_quad,
    quad_kernel_generator,
    quad_kernel_generators,
    extension_to_json,
    restrict_quad,
    wedge,
)
from katoforms.cli import DEFAULT_SEED, JobSpec, run
from katoforms.fields import RatFunc
from katoforms.oracle import SearchBounds, artin_schreier_search
from katoforms.sexpr import print_quadform
from katoforms.witt import _mat_zero


def test_pfister_dimensions(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    # << s, b ]] = [1, b] perp s[1, b]
    q = pfister_quad(PfisterSymbol((y,), x))
    assert q.dim == 4
    expected = QuadForm.binary(f2xy, f2xy.one(), x).perp(
        QuadForm.binary(f2xy, f2xy.one(), x).scale(y)
    )
    assert q == expected
    # <<1>>_b = <1, 1>
    b1 = pfister_bil(PfisterSymbol((f2xy.one(),)))
    assert b1 == BilForm.diagonal(f2xy, [f2xy.one(), f2xy.one()])
    # three slots: dimension 2^4 for the quadratic form
    assert pfister_quad(PfisterSymbol((x, y, x + y), x * y)).dim == 16
    assert pfister_bil(PfisterSymbol((x, y, x + y))).dim == 8


def test_pfister_quad_is_the_iterated_orthogonal_sum(f2xy):
    # the one-matrix build equals q -> q perp a q entry for entry, also when
    # products of the slots and the tail cancel denominators
    x, y = f2xy.var(0), f2xy.var(1)
    one = f2xy.one()
    slot_sets = [(y,), (x, y), (x / y, y / (x + one)), (x, y, x + y), (one / x, x * y, y + one)]
    for slots in slot_sets:
        for tail in (x, x * y, (x + one) / y, one):
            q = QuadForm.binary(f2xy, one, tail)
            for a in slots:
                q = q.perp(q.scale(a))
            built = pfister_quad(PfisterSymbol(slots, tail))
            assert built == q
            assert print_quadform(built) == print_quadform(q)
    f2x = FunctionField.make(2, ["x"])
    with pytest.raises(FieldMismatch):
        pfister_quad(PfisterSymbol((f2x.var(0),), x))


def test_quadform_folds_a_full_matrix(f2xy):
    # v^T M v sees M[i][j] + M[j][i]: the lower triangle folds onto the upper
    # one; a lower y cancels its upper y in characteristic 2, row 2 is zero,
    # and the expected matrix is the one the entry-by-entry fold built
    x, y = f2xy.var(0), f2xy.var(1)
    one, zero = f2xy.one(), f2xy.zero()
    matrix = [
        [x, y, one, y / x],
        [y, x + y, zero, one / x],
        [zero, zero, zero, zero],
        [x, x * y, one / (x + y), x * y],
    ]
    rows = [row[:] for row in matrix]
    q = QuadForm(f2xy, 4, matrix)
    assert q.matrix == [
        [x, zero, one, (x * x + y) / x],
        [zero, x + y, zero, (x * x * y + one) / x],
        [zero, zero, zero, one / (x + y)],
        [zero, zero, zero, x * y],
    ]
    assert matrix == rows  # the argument is left as it was
    v = [x, one, y, x + one]
    assert q.evaluate(v) == sum(
        (v[i] * rows[i][j] * v[j] for i in range(4) for j in range(4)), zero
    )
    with pytest.raises(FieldMismatch):
        QuadForm(f2xy, 2, [[one, FunctionField.make(2, ["x"]).one()], [zero, one]])


def test_mat_zero_rows_are_independent(f2xy):
    m = _mat_zero(f2xy, 3, 2)
    m[1][0] = f2xy.one()
    assert m == [[f2xy.zero()] * 2, [f2xy.one(), f2xy.zero()], [f2xy.zero()] * 2]


def test_quadform_evaluation(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    q = QuadForm.binary(f2xy, x, y)  # x X^2 + XY + y Y^2
    one, zero = f2xy.one(), f2xy.zero()
    assert q.evaluate([one, zero]) == x
    assert q.evaluate([zero, one]) == y
    assert q.evaluate([one, one]) == x + y + one
    assert q.is_nonsingular()
    assert not QuadForm(f2xy, 2, [[x, zero], [zero, y]]).is_nonsingular()


def test_arf_examples(f2xy):
    x = f2xy.var(0)
    one = f2xy.one()
    assert arf(QuadForm.binary(f2xy, one, x)) == x
    assert arf(QuadForm.hyperbolic_plane(f2xy)).is_zero()
    qc = QuadForm.binary(f2xy, one, x)
    assert arf(qc.perp(qc)).is_zero()


def test_arf_stable_under_hyperbolic_summands(f2xy, rng):
    from katoforms.fields import random_ratfunc

    hh = QuadForm.hyperbolic_plane(f2xy)
    for _ in range(20):
        a = random_ratfunc(f2xy, rng, 2, 2)
        b = random_ratfunc(f2xy, rng, 2, 2)
        q = QuadForm.binary(f2xy, a, b)
        if not q.is_nonsingular():
            continue
        base = arf(q)
        padded = arf(q.perp(hh))
        # representatives may differ by wp(F); both reductions here agree exactly
        assert (padded - base).is_zero() or artin_schreier_search(
            padded - base, SearchBounds(6, (f2xy.const_poly(1),))
        ) is not None


def test_arf_rejects_singular(f2xy):
    x = f2xy.var(0)
    zero = f2xy.zero()
    with pytest.raises(Singular):
        arf(QuadForm(f2xy, 2, [[x, zero], [zero, x]]))


def test_arf_with_nonunit_polar_values(f2xy):
    # scaled blocks force a non-trivial symplectic rescaling step
    x, y = f2xy.var(0), f2xy.var(1)
    scaled = QuadForm.binary(f2xy, f2xy.one(), x).scale(y)
    assert scaled.is_nonsingular()
    assert arf(scaled) == x  # y * (x/y)
    # two-fold Pfister forms always have trivial Arf invariant
    for sym in [PfisterSymbol((y,), x), PfisterSymbol((x + y,), x * y)]:
        assert arf(pfister_quad(sym)).is_zero()


def test_arf_builds_the_polar_matrix_once(f2xyz, monkeypatch):
    # one polar matrix serves every pairing of the reduction, whatever the
    # dimension
    x, y, z = (f2xyz.var(i) for i in range(3))
    one = f2xyz.one()
    calls = []
    real = QuadForm.polar_matrix
    monkeypatch.setattr(QuadForm, "polar_matrix", lambda q: calls.append(q) or real(q))
    forms = [
        (pfister_quad(PfisterSymbol((y,), x)), f2xyz.zero()),
        (pfister_quad(PfisterSymbol((y, z), x)), f2xyz.zero()),
        (QuadForm.binary(f2xyz, x, y).perp(QuadForm.binary(f2xyz, one, z).scale(x + y)),
         x * y + z),
        # x + yz + (x + z) + yz: c[a, b] has Arf invariant ab
        (QuadForm.binary(f2xyz, one, x)
         .perp(QuadForm.binary(f2xyz, y, z).scale(x))
         .perp(QuadForm.binary(f2xyz, x + z, one).scale(y))
         .perp(QuadForm.binary(f2xyz, one, y * z)), z),
    ]
    for q, value in forms:
        calls.clear()
        assert arf(q) == value
        assert len(calls) == 1


def test_isometry_examples(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    one, zero = f2xy.one(), f2xy.zero()
    # [1, c] vs [1, c + w^2 + w]
    q1 = QuadForm.binary(f2xy, one, x)
    q2 = QuadForm.binary(f2xy, one, x + y * y + y)
    assert is_isometry(q1, q2, IsometryCert(((one, y), (zero, one))))
    # identity
    assert is_isometry(q1, q1, IsometryCert(((one, zero), (zero, one))))
    # swap realizes [a, b] = [b, a]
    qa, qb = QuadForm.binary(f2xy, x, y), QuadForm.binary(f2xy, y, x)
    assert is_isometry(qa, qb, IsometryCert(((zero, one), (one, zero))))
    # non-invertible matrices never certify
    assert not is_isometry(q1, q1, IsometryCert(((zero, zero), (zero, zero))))
    # and wrong targets fail
    assert not is_isometry(q1, qa, IsometryCert(((one, zero), (zero, one))))


def test_lagrangian_examples(f2xy):
    one, zero = f2xy.one(), f2xy.zero()
    x = f2xy.var(0)
    qc = QuadForm.binary(f2xy, one, x)
    # q perp q with the diagonal basis
    qq = qc.perp(qc)
    assert lagrangian_check(
        qq, LagrangianCert(((one, zero, one, zero), (zero, one, zero, one)))
    )
    hh = QuadForm.hyperbolic_plane(f2xy)
    assert lagrangian_check(hh, LagrangianCert(((one, zero),)))
    # [1,1] is anisotropic over F_2(x): no single vector works
    q11 = QuadForm.binary(f2xy, one, one)
    for v in [(one, zero), (zero, one), (one, one), (x, one)]:
        assert not lagrangian_check(q11, LagrangianCert((v,)))
    # dependent vectors rejected
    assert not lagrangian_check(
        qq, LagrangianCert(((one, zero, one, zero), (one, zero, one, zero)))
    )


def test_hyperbolic_lagrangian(f2xy):
    hh = QuadForm.hyperbolic_plane(f2xy)
    q = hh.perp(hh)
    cert = hyperbolic_lagrangian(q)
    assert lagrangian_check(q, cert)
    with pytest.raises(CertificateFailed):
        hyperbolic_lagrangian(QuadForm.binary(f2xy, f2xy.one(), f2xy.zero()).perp(hh))


def test_quad_generator_enumeration(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    gens = quad_kernel_generators(((x, 2),), [y])
    tails = {(g.kind, str(g.tail)) for g in gens}
    assert ("linear", "x*y") in tails          # << s, s x ]]
    assert ("power", "x*y^2") in tails         # << s, s^2 x ]]
    gens1 = quad_kernel_generators(((x, 1),), [y])
    assert all(g.kind == "linear" for g in gens1)
    gens2 = quad_kernel_generators(((x, 1), (y, 1)), [f2xy.one()])
    assert all(g.kind == "linear" for g in gens2)
    assert len(gens2) == 2


def test_quad_kernel_generator_refuses_levels_outside_the_system(f2xy, f3xy):
    # the level rule of GeneratorSpec, with its messages; (0, (2,)) was once
    # built, and the generator's j then raised a bare ValueError
    x, y = f2xy.var(0), f2xy.var(1)
    pairs = ((x, 1),)
    for level in [(0, (2,)), (1, (1,)), (3, (5,))]:
        with pytest.raises(BadExponent) as refused:
            quad_kernel_generator(pairs, y, level)
        with pytest.raises(BadExponent) as by_spec:
            GeneratorSpec(pairs, 1, level)
        assert str(refused.value) == str(by_spec.value)
    # the characteristic is checked before the level
    with pytest.raises(ValueError, match="characteristic 2"):
        quad_kernel_generator(((f3xy.var(0), 1),), f3xy.var(1), (3, (5,)))


def test_hyperbolicity_chains(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    for m in (1, 2):
        ext = build_adapted(f2xy, AdaptedData(((0, m),)))
        for s in [y, x + y, f2xy.one()]:
            for g in quad_kernel_generators(((x, m),), [s]):
                chain = hyperbolicity_certificate(g, ext)
                assert chain.verify()
                assert chain.restricted == restrict_quad(g.form, ext)
                # every step stays nonsingular and of dimension 4
                for lhs, rhs, _ in chain.steps:
                    assert lhs.dim == 4 and rhs.dim == 4
                    assert lhs.is_nonsingular() and rhs.is_nonsingular()


def test_hyperbolicity_chain_two_slots(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 2), (1, 1))))
    for g in quad_kernel_generators(((x, 2), (y, 1)), [f2xy.one(), x + y]):
        assert hyperbolicity_certificate(g, ext).verify()


def test_hyperbolicity_chain_rejects_each_change(f2xy):
    # verify is a chain's only check: changing any one part of a verified
    # chain must make it fail
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    g = quad_kernel_generator(((x, 2),), y, (1, (1,)))
    chain = hyperbolicity_certificate(g, ext)
    assert chain.verify()
    target = ext.target
    one, zero = target.one(), target.zero()
    (lhs1, rhs1, t1), (lhs2, rhs2, t2) = chain.steps
    hh = QuadForm.hyperbolic_plane(target)
    identity = IsometryCert(tuple(
        tuple(one if i == j else zero for j in range(4)) for i in range(4)
    ))
    changes = {
        "a step's matrix": dict(steps=((lhs1, rhs1, t1), (lhs2, rhs2, identity))),
        "restricted": dict(restricted=chain.restricted.scale(target.var(0))),
        "a link": dict(steps=((lhs1, rhs1, t1), (lhs2, lhs2, t2))),
        # a sum of hyperbolic planes carries the chain's Lagrangian too
        "final_form": dict(final_form=hh.perp(hh)),
        "the Lagrangian": dict(lagrangian=LagrangianCert(
            ((one, zero, zero, zero), (zero, one, zero, zero))
        )),
    }
    for what, change in changes.items():
        fields = dict(
            restricted=chain.restricted, steps=chain.steps,
            final_form=chain.final_form, lagrangian=chain.lagrangian,
        )
        fields.update(change)
        assert not HyperbolicityChain(**fields).verify(), what
    assert lagrangian_check(hh.perp(hh), chain.lagrangian)


def test_hyperbolicity_needs_matching_extension(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    g = quad_kernel_generators(((x, 2),), [y])[0]
    from katoforms import UnsupportedExtension

    with pytest.raises(UnsupportedExtension):
        hyperbolicity_certificate(g, ext)


def test_bilinear_generators(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    gens = bilinear_kernel_generators(ext, [x, x * y * y, x + y * y, f2xy.one()])
    assert len(gens) == 4
    for g in gens:
        assert g.form.dim == 2
        assert g.form.matrix[0][0] == f2xy.one()
    # x itself: vector (u, 1) with u^2 + phi(x) = 0
    u = ext.target.var(0)
    assert gens[0].vector[0] == u
    # membership gate
    with pytest.raises(CertificateFailed):
        bilinear_kernel_generators(ext, [y])


def test_bilinear_generators_refuse_elements_of_another_field(f2xy):
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    f3xy = FunctionField.make(3, ["x", "y"])
    with pytest.raises(FieldMismatch):
        bilinear_kernel_generators(ext, [f3xy.var(0)])
    one = f2xy.one()
    with pytest.raises(FieldMismatch):
        BilForm(f2xy, 2, [[one, f2xy.zero()], [f2xy.zero(), f3xy.var(0)]])


def test_gram_forms_share_their_checks(f2xy):
    x, one, zero = f2xy.var(0), f2xy.one(), f2xy.zero()
    for kind in (QuadForm, BilForm):
        with pytest.raises(ValueError, match="shape"):
            kind(f2xy, 2, [[one, zero]])
    with pytest.raises(ValueError, match="symmetric"):
        BilForm(f2xy, 2, [[one, x], [zero, one]])
    # one matrix, two kinds of form: never equal
    diag = [[one, zero], [zero, x]]
    assert BilForm(f2xy, 2, diag) == BilForm.diagonal(f2xy, [one, x])
    assert QuadForm(f2xy, 2, diag) != BilForm(f2xy, 2, diag)
    assert repr(BilForm(f2xy, 2, diag)) == "BilForm(dim=2)"


def test_chains_and_bilinear_generators_over_a_non_adapted_extension(shifted_ext):
    # x -> z^(2^m) + yw: the datum x + yw is no source variable, and its
    # root z comes from the embedding
    ext, (b, m) = shifted_ext
    x, y, w = (ext.source.var(i) for i in range(3))
    one = ext.source.one()
    gens = quad_kernel_generators(((b, m),), [y, x + y, one, x * w + one])
    assert len(gens) == 4 * (2**m - 1)  # 44 chains over m = 1, 2, 3
    for g in gens:
        assert hyperbolicity_certificate(g, ext).verify()
    bils = bilinear_kernel_generators(ext, [b, b * y * y, one])
    root = ext.target.var(0) ** (2 ** (m - 1))
    assert [g.vector[0] for g in bils] == [root, root * ext.target.var(1), ext.target.one()]
    with pytest.raises(CertificateFailed):
        bilinear_kernel_generators(ext, [y])


def test_kato_maps(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    assert kato_e(PfisterSymbol((x,))) == dlog(x)
    assert kato_f(PfisterSymbol((x,), y)) == dlog(x).scale(y)
    assert kato_f(PfisterSymbol((), x)) == DiffForm.scalar(f2xy, x)
    assert nu_member(kato_e(PfisterSymbol((x, y))))
    assert kato_e(PfisterSymbol((x, y))) == wedge(dlog(x), dlog(y))
    with pytest.raises(ValueError):
        kato_e(PfisterSymbol((x,), y))
    with pytest.raises(ValueError):
        kato_f(PfisterSymbol((x,)))


def test_artin_schreier_solver(f2x):
    x = f2x.var(0)
    bounds = SearchBounds(8, (f2x.const_poly(1), x.num))
    assert artin_schreier_search(x * x + x, bounds) == x
    assert artin_schreier_search(f2x.zero(), bounds) == f2x.zero()
    assert artin_schreier_search(x, bounds) is None  # absence within bounds


def test_check_hyperbolic_adds_no_zeros_in_witt(monkeypatch, tmp_path, f2xy):
    # the matrix products, sums, polar matrices and the isometry check add
    # no zero operand, and neither does restricting a form, which sums each
    # substituted polynomial from its first term (starting each sum from
    # zero made 20 of the run's 50 additions, all in fields.substitute)
    add = RatFunc.__add__
    zero_adds = Counter()

    def counted(self, other):
        if self.is_zero() or other.is_zero():
            caller = sys._getframe(1)
            if caller.f_code is RatFunc.__sub__.__code__:
                caller = caller.f_back
            zero_adds[caller.f_globals["__name__"]] += 1
        return add(self, other)

    path = tmp_path / "ext_x2.json"
    path.write_text(extension_to_json(build_adapted(f2xy, AdaptedData(((0, 2),)))))
    monkeypatch.setattr(RatFunc, "__add__", counted)
    options = {"ext": str(path), "s": "x+y", "t": 1, "k": "1"}
    code, _ = run(JobSpec(command="check-hyperbolic", options=options, seed=DEFAULT_SEED))
    assert code == 0
    assert zero_adds == Counter()

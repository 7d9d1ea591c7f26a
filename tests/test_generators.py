"""Kernel generator systems: enumeration, vanishing witnesses, rebasing."""

import hashlib
import itertools
import random

import pytest

from katoforms import (
    AdaptedData,
    BadExponent,
    CertificateFailed,
    DiffForm,
    FunctionField,
    GeneratorSpec,
    SearchBounds,
    UnsupportedExtension,
    build_adapted,
    d,
    dlog,
    kernel_generators,
    log_kernel_generators,
    log_vanish_certificate,
    make_instance,
    pattern_lowering_certificate,
    power_patterns,
    pth_root,
    rebase_generator,
    restrict,
    sp_iter,
    vanish_certificate,
    verify_certificate,
    wedge,
)
from katoforms import generators
from katoforms.generators import (
    KIND_LINEAR,
    KIND_POWER,
    admissible_level,
    generator_levels,
    pattern_divisor,
    unit_vector,
)
from katoforms.forms import random_form_rng
from katoforms.sexpr import print_certificate, print_form, print_quadform, print_ratfunc
from katoforms.witt import hyperbolicity_certificate, quad_kernel_generators


def test_pattern_enumeration_examples(f2xy, f3xy):
    x = f2xy.var(0)
    # p=2, (x, m=2): t=1 with k in {0, 1}
    assert power_patterns(((x, 2),), 2) == [(1, (0,)), (1, (1,))]
    # p=2, (x, m=1): no power patterns
    assert power_patterns(((x, 1),), 2) == []
    # p=3, (x, m=2): t=1, k in {0, 1, 2}
    x3 = f3xy.var(0)
    assert power_patterns(((x3, 2),), 3) == [(1, (0,)), (1, (1,)), (1, (2,))]
    # divisibility forces k = 0 on slots with small m
    pats = power_patterns(((x, 2), (f2xy.var(1), 1)), 2)
    assert pats == [(1, (0, 0)), (1, (1, 0))]


def test_pattern_constraints_validated(f2xy):
    x = f2xy.var(0)
    with pytest.raises(BadExponent):
        GeneratorSpec(((x, 2),), 1, (2, (1,)))  # t > e-1
    with pytest.raises(BadExponent):
        GeneratorSpec(((x, 2),), 1, (1, (2,)))  # k >= p^t
    with pytest.raises(BadExponent):
        GeneratorSpec(((x, 1), (f2xy.var(1), 2)), 1, (1, (1, 0)))
    with pytest.raises(ValueError):
        GeneratorSpec(((f2xy.zero(), 1),), 1, (0, (1,)))
    with pytest.raises(ValueError):
        GeneratorSpec(((x, 0),), 1, (0, (1,)))


def test_divisor_formula():
    assert pattern_divisor(2, 1, 2) == 1
    assert pattern_divisor(2, 1, 1) == 2
    assert pattern_divisor(2, 3, 2) == 4
    assert pattern_divisor(3, 2, 5) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_rule_admits_exactly_the_enumerated_levels(p):
    fld = FunctionField.make(p, ["x", "y"])
    for r in (1, 2):
        for ms in itertools.product(range(1, 4), repeat=r):
            pairs = tuple(zip((fld.var(0), fld.var(1)), ms))
            listed = generator_levels(pairs, p)
            assert len(set(listed)) == len(listed)
            assert all(admissible_level(pairs, level) == level for level in listed)
            # every level in a box around the system's range, -1 included
            e = max(ms)
            ks = itertools.product(range(-1, p ** (e - 1) + 1), repeat=r)
            admitted = set()
            for level in itertools.product(range(-1, e + 1), ks):
                try:
                    admitted.add(admissible_level(pairs, level))
                except BadExponent:
                    pass
            assert admitted == set(listed)


def test_kernel_generators_spec_example(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    gens = kernel_generators(f2xy, ((x, 2),), 1, [DiffForm.scalar(f2xy, y)])
    kinds = {(g.spec.kind, g.spec.t, g.spec.k, g.trivial) for g in gens}
    assert (KIND_LINEAR, None, None, False) in kinds
    assert (KIND_POWER, 1, (1,), False) in kinds
    assert (KIND_POWER, 1, (0,), True) in kinds  # all-zero pattern flagged trivial
    dy = DiffForm.basis(f2xy, (1,))
    lin = next(g for g in gens if g.spec.kind == KIND_LINEAR)
    assert lin.value == dy.scale(x)
    pw = next(g for g in gens if g.spec.kind == KIND_POWER and g.spec.k == (1,))
    assert pw.value == dy.scale(x * y)  # x * (dy)^[2] = x * (y dy)


def test_kernel_generators_degree_zero(f2xy):
    assert kernel_generators(f2xy, ((f2xy.var(0), 2),), 0, []) == []


def test_vanish_certificate_worked_example(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    gens = kernel_generators(f2xy, ((x, 2),), 1, [DiffForm.scalar(f2xy, y)])
    g = next(g for g in gens if g.spec.kind == KIND_POWER and g.spec.k == (1,))
    cert = vanish_certificate(g, ext)
    target = ext.target
    u, ye = target.var(0), target.var(1)
    assert cert.u == DiffForm.basis(target, (1,)).scale(u * u)
    assert cert.eta == DiffForm.scalar(target, u * u * ye)
    assert verify_certificate(
        restrict(g.value, ext), DiffForm.zero(target, 1), cert
    )


def test_vanish_certificate_linear_example(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    g = kernel_generators(f2xy, ((x, 1),), 1, [DiffForm.scalar(f2xy, y)])[0]
    cert = vanish_certificate(g, ext)
    target = ext.target
    assert cert.u.is_zero()
    assert cert.eta == DiffForm.scalar(target, target.var(0) ** 2 * target.var(1))


def test_vanish_certificate_zero_instance(f2xy):
    x = f2xy.var(0)
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    g = make_instance(
        GeneratorSpec(((x, 2),), 1, (1, (1,))),
        DiffForm.scalar(f2xy, f2xy.one()),
    )
    assert g.value.is_zero()
    cert = vanish_certificate(g, ext)
    assert cert.u.is_zero() and cert.eta.is_zero()


def test_vanish_certificate_needs_matching_extension(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))  # x -> z^2
    v = DiffForm.scalar(f2xy, y)
    # data without a p^m-th root over E: x is not a fourth power, y not a square
    for pairs, level in [(((x, 2),), (1, (1,))), (((y, 1),), (0, (1,)))]:
        g = make_instance(GeneratorSpec(pairs, 1, level), v)
        with pytest.raises(UnsupportedExtension):
            vanish_certificate(g, ext)
    # data that are not distinguished variables but have their root:
    # x^2 = (z^2)^2 over E
    g2 = make_instance(GeneratorSpec(((x * x, 1),), 1, (0, (1,))), v)
    cert = vanish_certificate(g2, ext)
    assert verify_certificate(restrict(g2.value, ext), DiffForm.zero(ext.target, 1), cert)


def test_vanish_certificate_needs_an_adapted_extension(shifted_ext):
    # the datum has its root z over E, but the witness's telescope needs
    # restriction to commute with sp
    ext, (b, m) = shifted_ext
    v = DiffForm.scalar(ext.source, ext.source.var(1))
    for g in kernel_generators(ext.source, ((b, m),), 1, [v]):
        with pytest.raises(UnsupportedExtension):
            vanish_certificate(g, ext)


def test_all_generators_vanish_over_matching_extensions(rng):
    for p, data in [(2, ((0, 2), (1, 1))), (3, ((0, 2),))]:
        fld = FunctionField.make(p, ["x", "y"])
        pairs = tuple((fld.var(i), m) for i, m in data)
        ext = build_adapted(fld, AdaptedData(data))
        insts = [random_form_rng(fld, 0, 2, 2, rng) for _ in range(3)]
        for g in kernel_generators(fld, pairs, 1, insts):
            cert = vanish_certificate(g, ext)
            assert verify_certificate(
                restrict(g.value, ext), DiffForm.zero(ext.target, 1), cert
            )


def test_log_generators_shapes_and_vanishing(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 2),)))
    # n = 1: b s dlog s and b^k s^(p^t) dlog s
    gens1 = log_kernel_generators(f2xy, ((x, 2),), 1, [y, x + y], [[]])
    assert all(g.check_shape() for g in gens1)
    for g in gens1:
        if not g.trivial:
            log_vanish_certificate(g, ext)
    # s = 1 gives the zero instance
    triv = log_kernel_generators(f2xy, ((x, 2),), 1, [f2xy.one()], [[]])
    assert all(g.trivial for g in triv)
    # n = 2 worked instance: x y^2 dlog y ^ dlog(x y)  (t=1, k=1, s=y)
    gens2 = log_kernel_generators(f2xy, ((x, 2),), 2, [y], [[x * y]])
    pw = next(g for g in gens2 if g.kind == KIND_POWER and g.k == (1,))
    expected = wedge(dlog(y).scale(x * y * y), dlog(x * y))
    assert pw.value == expected
    assert pw.check_shape()
    log_vanish_certificate(pw, ext)


def test_failed_vanishing_search_names_its_bounds(f2xy):
    # over F2(sqrt x, y) the level-(1, (1,)) generator x y dy of the datum
    # (x, 2) restricts to u^2 y dy = sp(u dy), which is congruent to u dy
    # and not trivial, so no search finds a witness
    x, y = f2xy.var(0), f2xy.var(1)
    ext = build_adapted(f2xy, AdaptedData(((0, 1),)))
    gens = log_kernel_generators(f2xy, ((x, 2),), 1, [y], [[]])
    g = next(g for g in gens if g.level == (1, (1,)))
    with pytest.raises(CertificateFailed, match=r"\(no oracle bounds were given\)"):
        log_vanish_certificate(g, ext)
    bounds = SearchBounds(3, (ext.target.const_poly(1), ext.target.var_poly(0)))
    with pytest.raises(
        CertificateFailed,
        match=r"\(oracle searched numerator degree <= 3, denominators 1, u\)",
    ):
        log_vanish_certificate(g, ext, bounds)


def test_log_generators_check_each_tail_once(f2xy, monkeypatch):
    # the nu_member half of the shape check depends on the tail alone
    x, y = f2xy.var(0), f2xy.var(1)
    checked = []
    real = generators.nu_member
    monkeypatch.setattr(generators, "nu_member", lambda form: checked.append(form) or real(form))
    gens = log_kernel_generators(f2xy, ((x, 2), (y, 1)), 2, [y, x + y], [[x * y]])
    assert len(gens) == 8 and len(checked) == 1
    gens = log_kernel_generators(f2xy, ((x, 2), (y, 1)), 2, [y, x + y], [[x * y], [x]])
    assert len(gens) == 16 and len(checked) == 3
    # each generator still passes the whole check on its own
    assert all(g.check_shape() for g in gens)
    # a tail that is not log-fixed is refused; the empty tail is never checked
    monkeypatch.setattr(generators, "nu_member", lambda form: False)
    with pytest.raises(CertificateFailed, match="lost its factored shape"):
        log_kernel_generators(f2xy, ((x, 2),), 2, [y], [[x * y]])
    assert len(log_kernel_generators(f2xy, ((x, 2),), 1, [y], [[]])) == 3


def test_rebase_permutation(f2xyz):
    x, y, z = (f2xyz.var(i) for i in range(3))
    pairs = ((x, 1), (y, 2))
    spec = GeneratorSpec(pairs, 1, (0, unit_vector(len(pairs), 0)))
    g = make_instance(spec, DiffForm.scalar(f2xyz, z))
    out, cert = rebase_generator(g, ("permute", (1, 0)))
    assert len(out) == 1
    assert out[0].spec.pairs == ((y, 2), (x, 1))
    assert out[0].spec.j == 1
    assert out[0].value == g.value
    assert cert.u.is_zero() and cert.eta.is_zero()


def test_rebase_promote_linear_example(f2xyz):
    # b d(z) over (b, m) becomes b^p (dz)^[p] over (b^p, m+1)
    x, z = f2xyz.var(0), f2xyz.var(2)
    g = make_instance(
        GeneratorSpec(((x, 1),), 1, (0, (1,))), DiffForm.scalar(f2xyz, z)
    )
    out, cert = rebase_generator(g, ("promote", 0))
    assert len(out) == 1
    assert out[0].spec.kind == KIND_POWER and out[0].spec.t == 1
    assert out[0].spec.pairs == ((x * x, 2),)
    assert verify_certificate(g.value, out[0].value, cert)


def test_rebase_demote_linear_is_exact(f2xyz):
    # b^p d(v) over (b^p, m+1) is exact: eta = b^p v, empty generator sum
    x, z = f2xyz.var(0), f2xyz.var(2)
    g = make_instance(
        GeneratorSpec(((x * x, 2),), 1, (0, (1,))), DiffForm.scalar(f2xyz, z)
    )
    out, cert = rebase_generator(g, ("demote", 0))
    assert out == []
    assert cert.u.is_zero()
    assert cert.eta == DiffForm.scalar(f2xyz, x * x * z)
    assert verify_certificate(g.value, DiffForm.zero(f2xyz, 1), cert)


def test_rebase_drops_zero_linear_parts(f2xyz):
    # demoting another slot keeps b_j d(z) as it is, except that a zero value
    # leaves no generator, as for every other part of a rebased sum
    x, y, z = (f2xyz.var(i) for i in range(3))
    pairs = ((x * x, 2), (y, 1))
    spec = GeneratorSpec(pairs, 1, (0, unit_vector(len(pairs), 1)))
    g = make_instance(spec, DiffForm.scalar(f2xyz, z))
    out, cert = rebase_generator(g, ("demote", 0))
    assert [(o.spec.j, o.value) for o in out] == [(1, g.value)]
    assert out[0].spec.pairs == ((x, 1), (y, 1))
    assert cert.u.is_zero() and cert.eta.is_zero()
    g0 = make_instance(spec, DiffForm.scalar(f2xyz, z * z))
    assert g0.value.is_zero()
    out, cert = rebase_generator(g0, ("demote", 0))
    assert out == [] and cert.u.is_zero() and cert.eta.is_zero()


def test_rebase_promote_power_divisible(f2xyz):
    x, z = f2xyz.var(0), f2xyz.var(2)
    g = make_instance(
        GeneratorSpec(((x, 3),), 1, (2, (2,))), DiffForm.scalar(f2xyz, z)
    )
    out, cert = rebase_generator(g, ("promote", 0))
    assert len(out) == 1
    assert out[0].spec.k == (1,) and out[0].spec.t == 2
    assert out[0].value == g.value
    assert cert.u.is_zero() and cert.eta.is_zero()


def test_rebase_promote_power_coprime_raises_level(f2xyz):
    x, z = f2xyz.var(0), f2xyz.var(2)
    g = make_instance(
        GeneratorSpec(((x, 3),), 1, (2, (1,))), DiffForm.scalar(f2xyz, z)
    )
    out, cert = rebase_generator(g, ("promote", 0))
    assert out[0].spec.t == 3 and out[0].spec.k == (1,)
    assert verify_certificate(g.value, out[0].value, cert)


def test_rebase_demote_power_with_level_drop(f2xyz):
    x, z = f2xyz.var(0), f2xyz.var(2)
    g = make_instance(
        GeneratorSpec(((x * x, 2),), 1, (1, (1,))),
        DiffForm.scalar(f2xyz, z),
    )
    out, cert = rebase_generator(g, ("demote", 0))
    total = DiffForm.zero(f2xyz, 1)
    for o in out:
        total = total + o.value
    assert verify_certificate(g.value, total, cert)
    assert all(o.spec.pairs == ((x, 1),) for o in out)


def test_rebase_random_instances(rng):
    count = 0
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y", "z"])
        xv, yv = fld.var(0), fld.var(1)
        candidates = [xv, yv, xv + yv, xv * yv]
        for _ in range(30):
            r = rng.randint(1, 2)
            bs = rng.sample(candidates, r)
            pairs = tuple(
                (b ** (p if rng.random() < 0.3 else 1), rng.randint(1, 3))
                for b in bs
            )
            n = rng.randint(1, 2)
            v = random_form_rng(fld, n - 1, 2, 2, rng)
            pats = power_patterns(pairs, p)
            if pats and rng.random() < 0.7:
                t, k = rng.choice(pats)
                spec = GeneratorSpec(pairs, n, (t, k))
            else:
                spec = GeneratorSpec(pairs, n, (0, unit_vector(r, rng.randrange(r))))
            g = make_instance(spec, v)
            moves = [("permute", tuple(reversed(range(r)))), ("promote", rng.randrange(r))]
            i_dem = rng.randrange(r)
            b_dem, m_dem = pairs[i_dem]
            if m_dem >= 2 and pth_root(b_dem) is not None:
                moves.append(("demote", i_dem))
            for mv in moves:
                out, cert = rebase_generator(g, mv)
                total = DiffForm.zero(fld, n)
                for o in out:
                    total = total + o.value
                assert verify_certificate(g.value, total, cert)
                count += 1
    assert count >= 100


def test_pattern_lowering_certificate(f2xyz):
    # p | k(t, i) for all i: the instance equals the level-(t-1) pattern
    x, z = f2xyz.var(0), f2xyz.var(2)
    g = make_instance(
        GeneratorSpec(((x, 3),), 1, (2, (2,))), DiffForm.scalar(f2xyz, z)
    )
    lower, cert = pattern_lowering_certificate(g)
    assert lower.spec.t == 1 and lower.spec.k == (1,)
    assert verify_certificate(g.value, lower.value, cert)
    with pytest.raises(BadExponent):
        pattern_lowering_certificate(lower)  # k = (1,) not divisible


def test_power_value_matches_iterated_sp(f2xy):
    # the instance value is literally the monomial times the t-fold power of dv
    x, y = f2xy.var(0), f2xy.var(1)
    v = DiffForm.scalar(f2xy, y)
    g = make_instance(GeneratorSpec(((x, 3),), 1, (2, (3,))), v)
    assert g.value == sp_iter(d(v), 2).scale(x ** 3)


def _pinned_generator_lines():
    """Printed outputs of every generator computation over a seeded list."""
    rng = random.Random(20240)
    lines = []

    def spec_doc(spec):
        return f"{spec.kind} n={spec.n} j={spec.j} t={spec.t} k={spec.k}"

    def instance_doc(g):
        return f"{spec_doc(g.spec)} trivial={g.trivial} {print_form(g.value)}"

    # kernel generators and their vanishing witnesses, p = 2 and p = 3
    for p, data in [(2, ((0, 2), (1, 1))), (2, ((0, 3),)), (3, ((0, 2), (1, 1)))]:
        fld = FunctionField.make(p, ["x", "y", "z"])
        pairs = tuple((fld.var(i), m) for i, m in data)
        ext = build_adapted(fld, AdaptedData(data))
        for n in (1, 2):
            insts = [random_form_rng(fld, n - 1, 2, 2, rng) for _ in range(2)]
            for g in kernel_generators(fld, pairs, n, insts):
                lines.append(instance_doc(g))
                lines.append(print_certificate(vanish_certificate(g, ext)))
    # logarithmic generators
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        x, y = fld.var(0), fld.var(1)
        for n, tails in ((1, [[]]), (2, [[x * y], [x + y]])):
            for g in log_kernel_generators(fld, ((x, 2), (y, 1)), n, [y, x + y, fld.one()], tails):
                lines.append(f"{g.kind} j={g.j} t={g.t} k={g.k} trivial={g.trivial}")
                lines.append(print_form(g.head) + " " + print_form(g.value))
    # quadratic kernel generators and their hyperbolicity chains
    fld = FunctionField.make(2, ["x", "y", "z"])
    x, y, z = (fld.var(i) for i in range(3))
    for data in (((0, 2), (1, 1)), ((0, 3),)):
        pairs = tuple((fld.var(i), m) for i, m in data)
        ext = build_adapted(fld, AdaptedData(data))
        for g in quad_kernel_generators(pairs, [z, x + z, fld.one()]):
            lines.append(f"{g.kind} j={g.j} t={g.t} k={g.k} {print_ratfunc(g.tail)}")
            lines.append(print_quadform(g.form))
            chain = hyperbolicity_certificate(g, ext)
            for lhs, rhs, cert in chain.steps:
                lines.append(print_quadform(lhs) + " " + print_quadform(rhs))
                lines.append(" ".join(print_ratfunc(e) for row in cert.matrix for e in row))
            lines.append(print_quadform(chain.final_form))
    # rebasing moves on linear and power instances
    f3 = FunctionField.make(3, ["x", "y", "z"])
    for pairs in (((x * x, 2), (y, 2)), ((f3.var(0) ** 3, 2), (f3.var(1), 1))):
        fld = pairs[0][0].field
        specs = [GeneratorSpec(pairs, 1, level) for level in generator_levels(pairs, fld.p)]
        for spec in specs:
            g = make_instance(spec, random_form_rng(fld, 0, 2, 2, rng))
            for move in (("permute", (1, 0)), ("promote", 0), ("promote", 1), ("demote", 0)):
                out, cert = rebase_generator(g, move)
                lines.append(f"{move} -> {len(out)}")
                lines.extend(instance_doc(o) for o in out)
                lines.append(print_certificate(cert))
    return lines


def test_pinned_generator_outputs():
    # every generator computation is a function of its inputs alone: any
    # change to a value, a witness, a chain or a rebasing move shows up here
    h = hashlib.sha256()
    for line in _pinned_generator_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == (
        "421817eed10839a75e9f4ddb289341f180d32ad76f35210d9eba7d72316bc7e4"
    )

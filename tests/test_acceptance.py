"""Acceptance suite: one test per criterion, sizes and budgets as stated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every criterion is checked exactly (the library is exact
arithmetic; there are no numeric tolerances, only time budgets).
"""

import random
import time
from contextlib import contextmanager

from katoforms import (
    AdaptedData,
    DiffForm,
    FunctionField,
    GeneratorSpec,
    InsepCert,
    SearchBounds,
    build_adapted,
    build_embedding,
    cartier_raw,
    d,
    exhaustive_exactness,
    exponent_reduction,
    is_exact,
    kernel_generators,
    log_kernel_generators,
    log_vanish_certificate,
    make_instance,
    monomial_split_certificate,
    omega_kernel_member,
    power_certificate,
    pth_root,
    quad_kernel_generators,
    rebase_generator,
    restrict,
    sp,
    square_class_kernel,
    vanish_certificate,
    verify_certificate,
)
from katoforms.certificates import monomial
from katoforms.extensions import square_class_kernel_oracle
from katoforms.fields import random_ratfunc
from katoforms.forms import random_form_rng
from katoforms.generators import KIND_LINEAR, power_patterns, unit_vector
from katoforms.oracle import artin_schreier_search
from katoforms.witt import (
    PfisterSymbol,
    bilinear_kernel_generators,
    hyperbolicity_certificate,
    kato_f,
)


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_cartier_identities():
    with criterion(1, "Cartier inverts sp and kills exact forms, 500 forms each", 60):
        for p in (2, 3):
            rng = random.Random(1000 + p)
            checked_sp = checked_d = 0
            while checked_sp < 500 or checked_d < 500:
                m = rng.randint(1, 3)
                fld = FunctionField.make(p, [f"x{i+1}" for i in range(m)])
                n = rng.randint(0, min(2, m))
                if checked_sp < 500:
                    w = random_form_rng(fld, n, 4, 2, rng)
                    assert cartier_raw(sp(w)) == w
                    checked_sp += 1
                if checked_d < 500 and n < m:
                    eta = random_form_rng(fld, n, 4, 2, rng)
                    assert cartier_raw(d(eta)).is_zero()
                    checked_d += 1


def test_criterion_2_exactness_vs_oracle():
    with criterion(2, "exactness decision agrees with bounded search, 200 forms", 120):
        for p in (2, 3):
            rng = random.Random(2000 + p)
            fld = FunctionField.make(p, ["x"])
            xv = fld.var(0)
            den_pool = [fld.const_poly(1), xv.num]
            bounds = SearchBounds(
                10, (fld.const_poly(1), xv.num, (xv * xv).num, (xv ** 3).num)
            )
            for i in range(200):
                style = i % 3
                if style == 0:
                    w = random_form_rng(fld, 1, 6, 2, rng, den_pool=den_pool)
                elif style == 1:
                    w = d(random_form_rng(fld, 0, 5, 2, rng, den_pool=den_pool))
                else:
                    w = sp(random_form_rng(fld, 1, 3, 2, rng, den_pool=den_pool))
                assert is_exact(w) == exhaustive_exactness(w, bounds)


def test_criterion_3_certificate_suite():
    with criterion(3, "rewriting ops self-verify on >= 50 instances each", 120):
        for p in (2, 3):
            rng = random.Random(3000 + p)
            fld = FunctionField.make(p, ["x", "y"])
            pool = [fld.var(0), fld.var(1), fld.var(0) + fld.var(1), fld.var(0) * fld.var(1)]
            for _ in range(50):
                # iterated power
                v = random_form_rng(fld, rng.randint(0, 2), 2, 2, rng)
                rhs, cert = power_certificate(v, rng.randint(0, 3))
                assert verify_certificate(rhs, v, cert)
                # monomial split
                r = rng.randint(1, 2)
                bs = [rng.choice(pool) for _ in range(r)]
                ks = [rng.randint(1, 4) for _ in range(r)]
                v1 = random_form_rng(fld, rng.randint(0, 1), 2, 2, rng)
                rhs, cert = monomial_split_certificate(bs, ks, v1)
                assert verify_certificate(d(v1).scale(monomial(fld, bs, ks)), rhs, cert)
                # exponent reduction
                t = rng.randint(1, 2)
                ks2 = [rng.randint(0, p ** t + p) for _ in range(r)]
                red = exponent_reduction(bs, ks2, t, v1)
                assert verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate)
                # rebasing
                pairs = tuple(
                    (b ** (p if rng.random() < 0.3 else 1), rng.randint(1, 3))
                    for b in bs
                )
                pats = power_patterns(pairs, p)
                if pats and rng.random() < 0.7:
                    tt, kk = rng.choice(pats)
                    spec = GeneratorSpec(pairs, v1.degree + 1, (tt, kk))
                else:
                    spec = GeneratorSpec(pairs, v1.degree + 1, (0, unit_vector(r, rng.randrange(r))))
                g = make_instance(spec, v1)
                moves = [("permute", tuple(reversed(range(r)))), ("promote", rng.randrange(r))]
                i_dem = rng.randrange(r)
                if pairs[i_dem][1] >= 2 and pth_root(pairs[i_dem][0]) is not None:
                    moves.append(("demote", i_dem))
                for mv in moves:
                    out, cert = rebase_generator(g, mv)
                    total = DiffForm.zero(fld, g.value.degree)
                    for o in out:
                        total = total + o.value
                    assert verify_certificate(g.value, total, cert)


def test_criterion_4_forward_inclusion():
    with criterion(4, "every enumerated generator vanishes certifiably over E", 60):
        for p, data in [(2, ((0, 2), (1, 1))), (3, ((0, 2),))]:
            fld = FunctionField.make(p, ["x", "y"])
            x, y = fld.var(0), fld.var(1)
            pairs = tuple((fld.var(i), m) for i, m in data)
            ext = build_adapted(fld, AdaptedData(data))
            insts_by_degree = {
                1: [DiffForm.scalar(fld, v) for v in (y, x * y, x + y)],
                2: [
                    DiffForm.basis(fld, (1,)),
                    DiffForm.basis(fld, (1,)).scale(x),
                    DiffForm.basis(fld, (1,)).scale(x + y),
                ],
            }
            count = 0
            for n, insts in insts_by_degree.items():
                for g in kernel_generators(fld, pairs, n, insts):
                    cert = vanish_certificate(g, ext)
                    assert verify_certificate(
                        restrict(g.value, ext),
                        DiffForm.zero(ext.target, g.value.degree),
                        cert,
                    )
                    count += 1
            assert count > 0


def test_criterion_5_degree_eight_example():
    with criterion(5, "the non-modular degree-8 example reproduces exactly", 60):
        source = FunctionField.make(2, ["X", "Y", "Z"])
        target = FunctionField.make(2, ["X", "w", "u"])
        X, Y, Z = (source.var(i) for i in range(3))
        Xe, w, u = (target.var(i) for i in range(3))
        ext = build_embedding(
            source,
            target,
            (Xe, w * w + Xe * u * u, u ** 4),
            (
                InsepCert("X", 0, X),
                InsepCert("w", 2, X * X * Z + Y * Y),
                InsepCert("u", 2, Z),
            ),
        )
        dXdY = DiffForm.basis(source, (0, 1))
        assert restrict(dXdY, ext).is_zero()
        assert not omega_kernel_member(dXdY, AdaptedData(((2, 2),)))


def test_criterion_6_syntactic_kernel_equivalence():
    with criterion(6, "syntactic kernel membership iff restriction vanishes", 120):
        specs = [
            (FunctionField.make(2, ["x", "y", "z"]), ((0, 2),)),
            (FunctionField.make(2, ["x", "y", "z"]), ((0, 1), (1, 1))),
            (FunctionField.make(3, ["x", "y"]), ((1, 2),)),
        ]
        for idx, (fld, data_pairs) in enumerate(specs):
            rng = random.Random(6000 + idx)
            data = AdaptedData(data_pairs)
            ext = build_adapted(fld, data)
            for _ in range(300):
                n = rng.randint(0, fld.nvars)
                w = random_form_rng(fld, n, 2, 2, rng)
                assert omega_kernel_member(w, data) == restrict(w, ext).is_zero()


def test_criterion_7_witt_layer():
    with criterion(7, "hyperbolicity chains and bilinear isotropy certificates", 120):
        fld = FunctionField.make(2, ["x", "y"])
        x, y = fld.var(0), fld.var(1)
        for m in (1, 2):
            ext = build_adapted(fld, AdaptedData(((0, m),)))
            for s in (y, x + y, fld.one()):
                for g in quad_kernel_generators(((x, m),), [s]):
                    chain = hyperbolicity_certificate(g, ext)
                    assert chain.verify()
        ext1 = build_adapted(fld, AdaptedData(((0, 1),)))
        gens = bilinear_kernel_generators(ext1, [x, x * y * y, x + y * y])
        assert len(gens) == 3
        for g in gens:
            e_form = [[ext1.apply(e) for e in row] for row in g.form.matrix]
            v = g.vector
            val = sum(
                (v[i] * e_form[i][j] * v[j] for i in range(2) for j in range(2)),
                ext1.target.zero(),
            )
            assert val.is_zero()


def test_criterion_8_symbol_map_cross_consistency():
    with criterion(8, "f_n images of Witt generators match the log generators", 120):
        fld = FunctionField.make(2, ["x", "y"])
        x, y = fld.var(0), fld.var(1)
        pairs = ((x, 2),)
        ext = build_adapted(fld, AdaptedData(((0, 2),)))
        u = ext.target.var(0)
        oracle_bounds = SearchBounds(
            8, (ext.target.const_poly(1), u.num, (u * u).num)
        )
        s_list = [y, x + y]
        for n, tails in [(1, [[]]), (2, [[x * y]])]:
            for s in s_list:
                witt_gens = quad_kernel_generators(pairs, [s])
                log_gens = log_kernel_generators(fld, pairs, n, [s], tails)
                for wg in witt_gens:
                    for tail in tails:
                        sym = PfisterSymbol((s, *tail), wg.tail)
                        image = kato_f(sym)
                        match = [
                            lg
                            for lg in log_gens
                            if lg.kind == wg.kind
                            and lg.s == s
                            and lg.tail == tuple(tail)
                            and (lg.j == wg.j if wg.kind == KIND_LINEAR else lg.k == wg.k)
                        ]
                        assert len(match) == 1
                        assert match[0].value == image
                        if not match[0].trivial:
                            cert = log_vanish_certificate(match[0], ext, oracle_bounds)
                            assert verify_certificate(
                                restrict(image, ext),
                                DiffForm.zero(ext.target, n),
                                cert,
                            )


def test_criterion_9_wp_descent():
    with criterion(9, "Artin-Schreier witnesses over E descend to F", 60):
        rng = random.Random(9000)
        fld = FunctionField.make(2, ["y"])
        yv = fld.var(0)
        ext = build_adapted(fld, AdaptedData(((0, 1),)))
        uvar = ext.target.var(0)
        bounds_f = SearchBounds(6, (fld.const_poly(1), yv.num))
        bounds_e = SearchBounds(6, (ext.target.const_poly(1), uvar.num))
        pool = [fld.const_poly(1), yv.num]
        counterexamples = 0
        found_e_total = 0
        for i in range(50):
            if i % 2 == 0:
                f = random_ratfunc(fld, rng, 2, 2, pool)
                xval = f * f - f
            else:
                xval = random_ratfunc(fld, rng, 3, 2, pool)
            found_e = artin_schreier_search(ext.apply(xval), bounds_e) is not None
            found_f = artin_schreier_search(xval, bounds_f) is not None
            if found_e:
                found_e_total += 1
                if not found_f:
                    counterexamples += 1
        assert found_e_total > 0
        assert counterexamples == 0


def test_criterion_10_square_class_kernel():
    with criterion(10, "square-class kernel matches root existence over E", 60):
        rng = random.Random(10_000)
        fld = FunctionField.make(2, ["x", "y", "z"])
        data = AdaptedData(((0, 1), (1, 2)))
        ext = build_adapted(fld, data)
        x, y = fld.var(0), fld.var(1)
        member_hits = 0
        for i in range(200):
            if i % 4 == 0:
                g = random_ratfunc(fld, rng, 2, 2, nonzero=True)
                f = g * g * (x if i % 8 == 0 else fld.one())
            else:
                f = random_ratfunc(fld, rng, 3, 3)
            if f.is_zero():
                continue
            lhs = square_class_kernel(f, data)
            rhs = square_class_kernel_oracle(f, ext)
            assert lhs == rhs
            member_hits += lhs
        assert member_hits > 0

"""Bounded brute-force solver: contracts, agreement, monotonicity."""

import random

import pytest

from katoforms import (
    CertificateFailed,
    DiffForm,
    FunctionField,
    SearchBounds,
    d,
    dlog,
    exhaustive_exactness,
    is_exact,
    solve_linear_fp,
    solve_wp_plus_d,
    verify_certificate,
    wp,
)
from katoforms.forms import random_form_rng


def test_solve_linear_fp_canned_systems():
    # unique
    assert solve_linear_fp([[1, 0], [0, 1]], [1, 2], 3) == [1, 2]
    # underdetermined: some witness comes back and satisfies the system
    sol = solve_linear_fp([[1, 1]], [1], 2)
    assert sol is not None and (sol[0] + sol[1]) % 2 == 1
    # infeasible
    assert solve_linear_fp([[1, 0], [1, 0]], [1, 2], 3) is None
    # inputs are not modified
    rows, rhs = [[1, 2], [0, 1]], [1, 2]
    solve_linear_fp(rows, rhs, 3)
    assert rows == [[1, 2], [0, 1]] and rhs == [1, 2]
    # random systems with unreduced entries: every solution satisfies them
    gen = random.Random(2)
    for _ in range(300):
        p = gen.choice([2, 3, 5])
        n = gen.randint(0, 6)
        m = gen.randint(1, 6)
        rows = [[gen.randrange(-p, 2 * p) for _ in range(m)] for _ in range(n)]
        rhs = [gen.randrange(-p, 2 * p) for _ in range(n)]
        sol = solve_linear_fp(rows, rhs, p)
        if sol is not None and n:
            for row, t in zip(rows, rhs):
                assert sum(c * x for c, x in zip(row, sol)) % p == t % p


def test_wp_plus_d_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    bounds = SearchBounds(6, (f2x.const_poly(1), x.num))
    cert = solve_wp_plus_d(dx.scale(x + f2x.one()), bounds)
    assert cert is not None and cert.eta.is_zero()
    cert = solve_wp_plus_d(dx.scale(x), bounds)
    assert cert is not None
    assert verify_certificate(dx.scale(x), DiffForm.zero(f2x, 1), cert)


def test_unverified_solution_is_refused(f2x, monkeypatch):
    # the oracle re-checks its own answer, also under python -O
    monkeypatch.setattr("katoforms.oracle.verify_certificate", lambda *a: False)
    dx = DiffForm.basis(f2x, (0,))
    with pytest.raises(CertificateFailed):
        solve_wp_plus_d(dx, SearchBounds(2, (f2x.const_poly(1),)))


def test_wp_plus_d_refutes_within_bounds(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    bounds = SearchBounds(6, (f2xy.const_poly(1), x.num))
    assert solve_wp_plus_d(dlog(x).scale(y), bounds) is None


def test_every_positive_answer_verifies(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x"])
        xv = fld.var(0)
        pool = [fld.const_poly(1), xv.num]
        bounds = SearchBounds(7, tuple(pool))
        for _ in range(25):
            w = random_form_rng(fld, 1, 4, 2, rng, den_pool=pool)
            cert = solve_wp_plus_d(w, bounds)
            if cert is not None:
                assert verify_certificate(w, DiffForm.zero(fld, 1), cert)


def test_exactness_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    bounds = SearchBounds(8, (f2x.const_poly(1), x.num))
    assert exhaustive_exactness(dx, bounds)
    assert not exhaustive_exactness(dx.scale(x), bounds)
    assert exhaustive_exactness(DiffForm.zero(f2x, 1), bounds)


def test_exactness_agrees_with_cartier(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x"])
        xv = fld.var(0)
        pool = [fld.const_poly(1), xv.num]
        bounds = SearchBounds(10, (fld.const_poly(1), xv.num, (xv * xv).num))
        for _ in range(30):
            w = random_form_rng(fld, 1, 6, 2, rng, den_pool=pool)
            assert is_exact(w) == exhaustive_exactness(w, bounds)


def test_monotonicity(rng):
    # enlarging bounds never flips a positive answer to negative
    fld = FunctionField.make(2, ["x"])
    xv = fld.var(0)
    small = SearchBounds(3, (fld.const_poly(1),))
    big = SearchBounds(6, (fld.const_poly(1), xv.num))
    for _ in range(25):
        w = random_form_rng(fld, 1, 2, 2, rng)
        if solve_wp_plus_d(w, small) is not None:
            assert solve_wp_plus_d(w, big) is not None
        if exhaustive_exactness(w, small):
            assert exhaustive_exactness(w, big)


def test_degree_zero_artin_schreier(f2xy):
    # wp(u) + d(eta) = c in degree 0 forces eta = 0 and u^p - u = c
    x = f2xy.var(0)
    bounds = SearchBounds(4, (f2xy.const_poly(1),))
    c = x * x - x
    cert = solve_wp_plus_d(DiffForm.scalar(f2xy, c), bounds)
    assert cert is not None
    u = cert.u.scalar_value()
    assert u * u - u == c


def test_constructed_members_found(rng):
    # anything assembled from bounded pieces is rediscovered by the search
    fld = FunctionField.make(2, ["x"])
    xv = fld.var(0)
    bounds = SearchBounds(8, (fld.const_poly(1), xv.num))
    pool = [fld.const_poly(1), xv.num]
    for _ in range(20):
        u = random_form_rng(fld, 1, 2, 2, rng, den_pool=pool)
        eta = random_form_rng(fld, 0, 2, 2, rng, den_pool=pool)
        w = wp(u) + d(eta)
        assert solve_wp_plus_d(w, bounds) is not None

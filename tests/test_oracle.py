"""Bounded brute-force solver: contracts, agreement, monotonicity."""

import hashlib
import random

import pytest

from katoforms import (
    CertificateFailed,
    DiffForm,
    FunctionField,
    SearchBounds,
    ZeroDenominator,
    d,
    dlog,
    exhaustive_exactness,
    is_exact,
    ratfunc_normalize,
    solve_wp_plus_d,
    verify_certificate,
    wp,
)
from katoforms.fields import all_monomials
from katoforms.forms import random_form_rng
from katoforms.kernels import Factorization, gauss_solve
from katoforms.oracle import artin_schreier_search
from katoforms.sexpr import print_certificate, print_ratfunc


def _solve_dense(rows, rhs, p):
    """gauss_solve on dense rows, handed over as {column: coeff} dicts."""
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return gauss_solve(sparse, rhs, p, len(rows[0]) if rows else 0)


def test_gauss_solve_canned_systems():
    # unique
    assert _solve_dense([[1, 0], [0, 1]], [1, 2], 3) == [1, 2]
    # underdetermined: some witness comes back and satisfies the system
    sol = _solve_dense([[1, 1]], [1], 2)
    assert sol is not None and (sol[0] + sol[1]) % 2 == 1
    # infeasible
    assert _solve_dense([[1, 0], [1, 0]], [1, 2], 3) is None
    # inputs are not modified
    rows, rhs = [[1, 2], [0, 1]], [1, 2]
    _solve_dense(rows, rhs, 3)
    assert rows == [[1, 2], [0, 1]] and rhs == [1, 2]
    sparse = [{0: 1, 1: 2}, {1: 1}]
    gauss_solve(sparse, rhs, 3, 2)
    assert sparse == [{0: 1, 1: 2}, {1: 1}] and rhs == [1, 2]
    # entries are read mod p; columns no row reaches are free and zero
    assert gauss_solve([{0: 3, 1: 4}], [2], 3, 3) == [0, 2, 0]
    assert gauss_solve([], [], 3, 2) == [0, 0]
    assert gauss_solve([{}], [1], 3, 2) is None
    # random systems with unreduced entries: every solution satisfies them
    gen = random.Random(2)
    for _ in range(300):
        p = gen.choice([2, 3, 5])
        n = gen.randint(0, 6)
        m = gen.randint(1, 6)
        rows = [[gen.randrange(-p, 2 * p) for _ in range(m)] for _ in range(n)]
        rhs = [gen.randrange(-p, 2 * p) for _ in range(n)]
        sol = _solve_dense(rows, rhs, p)
        if sol is not None and n:
            for row, t in zip(rows, rhs):
                assert sum(c * x for c, x in zip(row, sol)) % p == t % p


def _dense_gauss_jordan(rows, rhs, p):
    """Reference: dense reduced row echelon form, free variables zero."""
    a = [[v % p for v in row] + [t % p] for row, t in zip(rows, rhs)]
    m = len(rows[0]) if rows else 0
    pivots = []
    for col in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], p - 2, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[r])]
        pivots.append(col)
    if any(row[-1] for row in a[len(pivots):]):
        return None
    x = [0] * m
    for r, col in enumerate(pivots):
        x[col] = a[r][-1]
    return x


def test_gauss_solve_matches_dense_reference():
    # the solution itself, not only its residual: certificates depend on it
    gen = random.Random(7)
    kinds = {"infeasible": 0, "deficient": 0, "empty": 0}
    for _ in range(300):
        p = gen.choice([2, 3, 5])
        n = gen.randint(0, 7)
        m = gen.randint(0, 7)
        # rank at most k: rows are combinations of k random rows
        k = gen.randint(0, min(n, m))
        base = [[gen.randrange(p) for _ in range(m)] for _ in range(k)]
        rows = []
        for _ in range(n):
            mix = [gen.randrange(p) for _ in range(k)]
            rows.append([sum(c * b[j] for c, b in zip(mix, base)) for j in range(m)])
        for j in gen.sample(range(m), gen.randint(0, m)) if gen.random() < 0.3 else []:
            for row in rows:
                row[j] = 0
        # unreduced entries must be read mod p
        rows = [[v + p * gen.randint(-1, 1) for v in row] for row in rows]
        if gen.random() < 0.5:
            x0 = [gen.randrange(p) for _ in range(m)]
            rhs = [sum(c * x for c, x in zip(row, x0)) for row in rows]
        else:
            rhs = [gen.randrange(-p, 2 * p) for _ in range(n)]
        expected = _dense_gauss_jordan(rows, rhs, p) if n else []
        assert _solve_dense(rows, rhs, p) == expected
        kinds["infeasible"] += expected is None
        kinds["deficient"] += k < min(n, m)
        kinds["empty"] += n == 0 or m == 0 or any(not any(r) for r in rows)
    assert all(count >= 20 for count in kinds.values()), kinds


def _as_dict(x):
    """A dense solution as Factorization.solve returns it: its nonzero entries."""
    return None if x is None else {j: v for j, v in enumerate(x) if v}


def _full_replay(fac, rhs):
    """The recorded elimination replayed over every step on a dense
    right-hand side, every row outside the pivots tested once at the end,
    and back-substitution over every pivot: what ``solve`` must return
    while it reads only what its right-hand side reaches."""
    p = fac.p
    b = [0] * fac.nrows
    for i, v in rhs.items():
        b[i] = v % p
    for r, inv, eliminated, factors in fac.steps:
        b[r] = b[r] * inv % p
        for i, f in zip(eliminated, factors):
            b[i] = (b[i] - f * b[r]) % p
    if any(b[i] for i in range(fac.nrows) if fac.step_of[i] is None):
        return None
    x = {}
    for col, r, rows, entries in reversed(fac.pivots):
        if b[r]:
            x[col] = b[r]
            for i, e in zip(rows, entries):
                b[i] = (b[i] - e * b[r]) % p
    return x


def _sparse_rhs(rhs, gen):
    """A dense right-hand side as {row: value}: every nonzero entry, and
    some entries that are 0 mod p, stored as they are."""
    return {i: v for i, v in enumerate(rhs) if v or gen.random() < 0.3}


def test_factorization_replays_every_right_hand_side():
    # one factorization per system, solved for many right-hand sides given
    # as {row: value}: each answer is gauss_solve's, the dense reference's
    # and that of a replay over every step, and solving modifies neither
    # the rows, the right-hand side nor the factorization
    gen = random.Random(23)
    # the rows kept in a sparse right-hand side are drawn apart, so that
    # the systems are those drawn from seed 23 alone
    keep = random.Random(29)
    kinds = {"feasible": 0, "infeasible": 0, "zero": 0}
    for _ in range(300):
        p = gen.choice([2, 3, 5])
        n = gen.randint(0, 9)
        m = gen.randint(0, 9)
        # sparse rows of rank at most k, some entries stored unreduced or as 0 mod p
        k = gen.randint(0, min(n, m))
        base = [[gen.randrange(p) if gen.random() < 0.4 else 0 for _ in range(m)] for _ in range(k)]
        dense = []
        for _ in range(n):
            mix = [gen.randrange(p) if gen.random() < 0.6 else 0 for _ in range(k)]
            dense.append([sum(c * b[j] for c, b in zip(mix, base)) % p for j in range(m)])
        rows = [
            {j: v + p * gen.randint(-1, 1) for j, v in enumerate(row) if v or gen.random() < 0.1}
            for row in dense
        ]
        snapshot = [dict(row) for row in rows]
        fac = Factorization(rows, p, m)
        state = tuple(getattr(fac, name) for name in Factorization.__slots__)
        rhss = [[0] * n]
        for _ in range(2):
            x0 = [gen.randrange(p) for _ in range(m)]
            rhss.append([sum(c * x for c, x in zip(row, x0)) + p * gen.randint(-1, 1) for row in dense])
        for _ in range(3):
            rhss.append([gen.randrange(-p, 2 * p) for _ in range(n)])
        answers = []
        sparse = [_sparse_rhs(rhs, keep) for rhs in rhss]
        for rhs, sparse_rhs in zip(rhss, sparse):
            before = dict(sparse_rhs)
            expected = _dense_gauss_jordan(dense, rhs, p) if n else [0] * m
            got = fac.solve(sparse_rhs)
            assert got == _as_dict(expected) == _full_replay(fac, sparse_rhs)
            assert expected == gauss_solve(rows, rhs, p, m)
            assert sparse_rhs == before
            answers.append(got)
            kinds["zero"] += not any(rhs)
            kinds["feasible"] += got is not None and any(v % p for v in rhs)
            kinds["infeasible"] += got is None
        assert [fac.solve(rhs) for rhs in sparse] == answers
        assert rows == snapshot
        assert tuple(getattr(fac, name) for name in Factorization.__slots__) == state
    assert all(count >= 100 for count in kinds.values()), kinds
    # the empty system, and an empty row
    assert Factorization([], 3, 2).solve({}) == {}
    assert Factorization([], 5, 0).solve({}) == {}
    empty_row = Factorization([{}], 3, 2)
    assert empty_row.solve({}) == {} and empty_row.solve({0: 3}) == {}
    assert empty_row.solve({0: 1}) is None
    # a row outside the system is refused, as is a dense right-hand side
    # of the wrong length
    for outside in ({1: 0}, {-1: 1}):
        with pytest.raises(ValueError):
            empty_row.solve(outside)
    with pytest.raises(ValueError):
        gauss_solve([{}], [], 3, 2)


def test_factorization_matches_dense_reference_on_large_sparse_systems():
    # systems up to 40 x 60, where reduced pivot rows reach many later
    # pivot columns and a wrong scatter in back-substitution would show:
    # rank-deficient, infeasible and mostly-free systems, each solved for
    # several right-hand sides against the dense reference
    gen = random.Random(41)
    keep = random.Random(43)
    kinds = {"deficient": 0, "infeasible": 0, "free": 0, "filled": 0}
    for _ in range(40):
        p = gen.choice([2, 3, 5])
        n = gen.randint(20, 40)
        m = gen.randint(30, 60)
        k = gen.randint(1, min(n, m))
        density = gen.choice([0.05, 0.15, 0.4])
        live = gen.sample(range(m), gen.randint(k, m) if gen.random() < 0.7 else k)
        base = [{j: gen.randrange(1, p) for j in live if gen.random() < density} for _ in range(k)]
        dense = []
        for _ in range(n):
            row = [0] * m
            for b in gen.sample(base, gen.randint(1, min(3, k))):
                c = gen.randrange(1, p)
                for j, v in b.items():
                    row[j] = (row[j] + c * v) % p
            dense.append(row)
        rows = [{j: v + p * gen.randint(-1, 1) for j, v in enumerate(row) if v} for row in dense]
        fac = Factorization(rows, p, m)
        state = tuple(getattr(fac, name) for name in Factorization.__slots__)
        rhss = []
        for _ in range(2):
            x0 = [gen.randrange(p) for _ in range(m)]
            rhss.append([sum(c * x for c, x in zip(row, x0)) for row in dense])
        rhss.append([gen.randrange(p) for _ in range(n)])
        for rhs in rhss:
            sparse_rhs = _sparse_rhs(rhs, keep)
            before = dict(sparse_rhs)
            expected = _dense_gauss_jordan(dense, rhs, p)
            assert fac.solve(sparse_rhs) == _as_dict(expected)
            assert expected == gauss_solve(rows, rhs, p, m)
            assert sparse_rhs == before
            kinds["infeasible"] += expected is None
        assert tuple(getattr(fac, name) for name in Factorization.__slots__) == state
        rank = len(fac.pivots)
        kinds["deficient"] += rank < min(n, m)
        kinds["free"] += m - rank >= m // 2
        kinds["filled"] += max((len(rows) for _, _, rows, _ in fac.pivots), default=0) >= 5
    assert all(count >= 8 for count in kinds.values()), kinds


class _ReadSteps(tuple):
    """A factorization's steps that record the index of every read."""

    def __new__(cls, steps, reads):
        self = super().__new__(cls, steps)
        self.reads = reads
        return self

    def __getitem__(self, s):
        self.reads.append(s)
        return super().__getitem__(s)


def test_two_key_target_reads_only_the_steps_it_reaches(monkeypatch):
    # F3(x,y) at degree bound 20, dens 1, x, y, x + y: 852 pivot steps.
    # A replay reads each step at most once, in step order, and only steps
    # in the reach of the target's rows: the pivot steps of those rows and,
    # through the rows each step eliminates, of the rows it writes to
    import katoforms.oracle as oracle

    oracle._spaces.cache_clear()
    f3 = FunctionField.make(3, ["x", "y"])
    x, y = f3.var(0), f3.var(1)
    bounds = SearchBounds(20, tuple(c.num for c in (f3.one(), x, y, x + y)))
    dx, dy = DiffForm.basis(f3, (0,)), DiffForm.basis(f3, (1,))
    # found, absent with keys in rows, and absent over a denominator in D
    targets = [dx, dy.scale(x), dx.scale((x + y).inv())]
    expected = [solve_wp_plus_d(omega, bounds) for omega in targets]
    assert [cert is not None for cert in expected] == [True, False, False]
    space = oracle._spaces(bounds)[f3]
    system = space.system(1, True)
    fac = system.factorization
    steps, step_of = fac.steps, fac.step_of
    assert len(steps) == 852
    reads = []
    monkeypatch.setattr(fac, "steps", _ReadSteps(steps, reads))
    for omega, cert in zip(targets, expected):
        rhs = system.rhs(space.target(omega))
        assert len(rhs) <= 3
        reach = set()
        stack = [step_of[i] for i in rhs if step_of[i] is not None]
        while stack:
            s = stack.pop()
            if s not in reach:
                reach.add(s)
                stack.extend(t for i in steps[s][2] if (t := step_of[i]) is not None)
        assert len(reach) * 50 < len(steps)
        reads.clear()
        got = solve_wp_plus_d(omega, bounds)
        assert reads == sorted(set(reads)) and set(reads) <= reach
        assert got == cert


def test_absent_target_stops_at_its_first_settled_contradiction(monkeypatch):
    # y dlog x, a nonzero class, on the degree-20 system of F3(x,y): its
    # right-hand side reaches 12 pivot steps, and a row outside the pivots
    # stays nonzero after the last step that writes to it, the third one;
    # the replay returns there and reads a strict prefix of its reach
    import katoforms.oracle as oracle

    oracle._spaces.cache_clear()
    f3 = FunctionField.make(3, ["x", "y"])
    x, y = f3.var(0), f3.var(1)
    bounds = SearchBounds(20, tuple(c.num for c in (f3.one(), x, y, x + y)))
    omega = dlog(x).scale(y)
    assert solve_wp_plus_d(omega, bounds) is None
    space = oracle._spaces(bounds)[f3]
    system = space.system(1, True)
    fac = system.factorization
    steps, step_of = fac.steps, fac.step_of
    rhs = system.rhs(space.target(omega))
    reach = set()
    stack = [step_of[i] for i in rhs if step_of[i] is not None]
    while stack:
        s = stack.pop()
        if s not in reach:
            reach.add(s)
            stack.extend(t for i in steps[s][2] if (t := step_of[i]) is not None)
    reads = []
    monkeypatch.setattr(fac, "steps", _ReadSteps(steps, reads))
    assert fac.solve(rhs) is None
    assert 0 < len(reads) < len(reach) and reads == sorted(reach)[: len(reads)]
    assert _full_replay(fac, rhs) is None


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


def test_target_beyond_every_column_is_absent(f3xy):
    # at these bounds the columns reach x^3 and y^3 at most; the packing's
    # radix must also exceed the target's y^6, or y^6 would share the key
    # of x and x^3 - y^6 would read as wp(x) = x^3 - x
    x, y = f3xy.var(0), f3xy.var(1)
    omega = DiffForm.scalar(f3xy, x ** 3 - y ** 6)
    assert solve_wp_plus_d(omega, SearchBounds(1, (f3xy.const_poly(1),))) is None


def test_denominator_outside_lp_is_absent_without_a_solve(monkeypatch):
    # with dens {1, x} every column's denominator divides D = x^p: x^4 and
    # x + y divide no combination of columns, so nothing is factored or solved
    import katoforms.oracle as oracle

    calls = {"factor": 0, "solve": 0}

    class Counted(Factorization):
        def __init__(self, *args):
            calls["factor"] += 1
            super().__init__(*args)

        def solve(self, rhs):
            calls["solve"] += 1
            return super().solve(rhs)

    monkeypatch.setattr(oracle, "Factorization", Counted)
    oracle._spaces.cache_clear()
    f3 = FunctionField.make(3, ["x"])
    x = f3.var(0)
    g = FunctionField.make(3, ["x", "y"])
    X, Y = g.var(0), g.var(1)
    b1 = SearchBounds(4, (f3.const_poly(1), x.num))
    b2 = SearchBounds(4, (g.const_poly(1), X.num))
    for omega, bounds in [
        (DiffForm.from_coeffs(f3, 1, {(0,): x.inv() ** 4}), b1),
        (DiffForm.scalar(f3, x.inv() ** 4), b1),
        (DiffForm.from_coeffs(g, 1, {(0,): Y / (X + Y)}), b2),
        (DiffForm.from_coeffs(g, 2, {(0, 1): (X + Y).inv()}), b2),
    ]:
        assert solve_wp_plus_d(omega, bounds) is None
        assert exhaustive_exactness(omega, bounds) is False
    assert calls == {"factor": 0, "solve": 0}
    # the count sees the oracle's path: a target inside D is factored and solved
    assert solve_wp_plus_d(DiffForm.scalar(f3, x.inv()), b1) is None
    assert calls == {"factor": 1, "solve": 1}


def test_denominator_inside_lp_not_l():
    # x^2 and x^3 divide D = x^3 but not L = x: still solved over D
    f3 = FunctionField.make(3, ["x"])
    x = f3.var(0)
    b1 = SearchBounds(2, (f3.const_poly(1), x.num))
    g = FunctionField.make(3, ["x", "y"])
    X, Y = g.var(0), g.var(1)
    b2 = SearchBounds(2, (g.const_poly(1), X.num))
    cases = [
        (d(DiffForm.scalar(f3, x.inv())), b1),
        (DiffForm.scalar(f3, x.inv() * x.inv()), b1),
        (d(DiffForm.scalar(f3, x.inv() * x.inv())), b1),
        (d(DiffForm.scalar(g, Y / X)) + wp(DiffForm.from_coeffs(g, 1, {(1,): X})), b2),
        (d(DiffForm.scalar(g, Y / X)).scale(Y), b2),
    ]
    h = hashlib.sha256()
    exact = []
    for omega, bounds in cases:
        cert = solve_wp_plus_d(omega, bounds)
        h.update((print_certificate(cert) if cert is not None else "absent").encode())
        exact.append(exhaustive_exactness(omega, bounds))
    assert h.hexdigest() == (
        "90592b1227f398152700e7d6faf41ee02c7e64f4a9157590d8dddd9f4b57330f"
    )
    assert exact == [True, False, False, False, False]


def test_negative_degree_bound_is_refused(f2x):
    with pytest.raises(ValueError):
        SearchBounds(-1, (f2x.const_poly(1),))


def test_bounds_are_hashable_values(f2x):
    # a list of denominators is stored as a tuple: the bounds hash, equal
    # the tuple-built bounds, and cannot change under the oracle's memo
    one, x = f2x.const_poly(1), f2x.var_poly(0)
    dens = [one, x]
    bounds = SearchBounds(3, dens)
    dens.append(x * x)
    assert bounds.denominators == (one, x)
    assert bounds == SearchBounds(3, (one, x))
    assert hash(bounds) == hash(SearchBounds(3, (one, x)))
    for bad in (True, 3.0, "3", None):
        with pytest.raises(ValueError):
            SearchBounds(bad, (one,))


def test_candidates_are_reduced_fractions(f3xy):
    # the closed-form reduction agrees with ratfunc_normalize, order included
    x, y = f3xy.var_poly(0), f3xy.var_poly(1)
    one = f3xy.const_poly(1)
    for dens in [(), (one, x, y, x + y), (x.scale(2) + y, x * y, one.scale(2)),
                 (x * x * y + x * y * y, x * x)]:
        bounds = SearchBounds(4, dens)
        expected = []
        for den in dens or (one,):
            for mono in all_monomials(f3xy, 4):
                f = ratfunc_normalize(mono, den)
                if f not in expected:
                    expected.append(f)
        assert bounds.candidate_functions(f3xy) == expected
    with pytest.raises(ZeroDenominator):
        SearchBounds(2, (one, f3xy.zero_poly())).candidate_functions(f3xy)


# -- pinned certificates ---------------------------------------------------------


def _span_form(fld, n, deg, dens, gen, terms=2):
    """n-form whose coefficients are bounded monomials over dens (within bounds)."""
    coeffs = {}
    for _ in range(terms):
        idx = tuple(sorted(gen.sample(range(fld.nvars), n)))
        exp = [0] * fld.nvars
        for _ in range(gen.randint(0, deg)):
            exp[gen.randrange(fld.nvars)] += 1
        c = ratfunc_normalize(
            fld.monomial(tuple(exp), gen.randint(1, fld.p - 1)), gen.choice(dens)
        )
        coeffs[idx] = c if idx not in coeffs else coeffs[idx] + c
    return DiffForm.from_coeffs(fld, n, coeffs)


def _pinned_cases():
    """(omega, bounds) pairs: members, near misses and nonzero classes."""
    gen = random.Random(31337)
    cases = []

    def add(fld, n, deg, dens, members=2, misses=1):
        bounds = SearchBounds(deg, tuple(dens))
        for _ in range(members):
            u = _span_form(fld, n, deg, dens, gen)
            w = wp(u)
            if n >= 1:
                w = w + d(_span_form(fld, n - 1, deg, dens, gen))
            cases.append((w, bounds))
        if n >= 1:
            cases.append((d(_span_form(fld, n - 1, deg, dens, gen)), bounds))
        for _ in range(misses):
            cases.append((_span_form(fld, n, deg + 2, dens, gen), bounds))

    f3 = FunctionField.make(3, ["x", "y"])
    x, y = f3.var_poly(0), f3.var_poly(1)
    one = f3.const_poly(1)
    add(f3, 1, 7, [one, x, y, x + y], members=3)
    add(f3, 1, 4, [one, x.scale(2) + y])
    add(f3, 1, 4, [one, x, x * y])
    f2 = FunctionField.make(2, ["x", "y", "z"])
    add(f2, 2, 3, [f2.const_poly(1), f2.var_poly(0)])
    # y dx/x: a nonzero class, absent at any bounds
    cases.append((dlog(f3.var(0)).scale(f3.var(1)), SearchBounds(5, (one, x))))
    return cases


def test_pinned_certificates():
    # the oracle's answers are a function of the inputs alone: any change to
    # the candidate space, the columns or the elimination shows up here
    h = hashlib.sha256()
    exact = []
    for omega, bounds in _pinned_cases():
        cert = solve_wp_plus_d(omega, bounds)
        h.update((print_certificate(cert) if cert is not None else "absent").encode())
        exact.append(exhaustive_exactness(omega, bounds))
    f2xy = FunctionField.make(2, ["x", "y"])
    x = f2xy.var(0)
    for c in (x * x + x, x.inv() * x.inv() + x.inv(), x * x * x + x):
        for bounds in (SearchBounds(0, (f2xy.const_poly(1), x.num)),
                       SearchBounds(3, (f2xy.const_poly(1), x.num))):
            u = artin_schreier_search(c, bounds)
            h.update((print_ratfunc(u) if u is not None else "absent").encode())
    assert h.hexdigest() == (
        "892a74984550e9f7b5ebbc145a33863919de48baa0e3a7f6d7df3d0c27507c14"
    )
    assert exact == [False, False, False, True] * 4 + [False, False]

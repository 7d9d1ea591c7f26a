"""The oracle's per-bounds systems: built once per bounds value, shared by
equal bounds, kept while held or recently used, and invisible in every
answer."""

import functools
import gc
import hashlib
import random
import sys
import threading

import pytest

import katoforms.oracle as oracle
from katoforms import (
    DiffForm,
    FunctionField,
    SearchBounds,
    d,
    dlog,
    exhaustive_exactness,
    ratfunc_normalize,
    solve_wp_plus_d,
    wp,
)
from katoforms.fields import poly_exact_div
from katoforms.sexpr import print_certificate

# pinned from the oracle that rebuilt its system on every call
DIGEST = "5594d98978c25929938b41b38f2a7826545bfba0133d37eab2396a54025f018f"
FOUND = [True, False, True, False, True, False, True, False, True, False, True, False]
EXACT = [False, False, True, False, False, False, True, False, False, False, True, False]

# the number of bounds values the memo keeps
RECENT = oracle._spaces.cache_info().maxsize


@pytest.fixture(autouse=True)
def empty_memo():
    oracle._spaces.cache_clear()
    yield
    oracle._spaces.cache_clear()


def _span_form(fld, n, deg, dens, gen):
    """n-form with two bounded monomials over dens as coefficients."""
    coeffs = {}
    for _ in range(2):
        idx = tuple(sorted(gen.sample(range(fld.nvars), n)))
        exp = [0] * fld.nvars
        for _ in range(gen.randint(0, deg)):
            exp[gen.randrange(fld.nvars)] += 1
        c = ratfunc_normalize(
            fld.monomial(tuple(exp), gen.randint(1, fld.p - 1)), gen.choice(dens)
        )
        coeffs[idx] = c if idx not in coeffs else coeffs[idx] + c
    return DiffForm.from_coeffs(fld, n, coeffs)


def _cases():
    """(omega, (max_degree, denominators)) pairs, found and absent
    alternating, on two bounds values of F3(x,y) and one of F2(x,y,z)."""
    gen = random.Random(20261018)
    f3 = FunctionField.make(3, ["x", "y"])
    x, y = f3.var_poly(0), f3.var_poly(1)
    one = f3.const_poly(1)
    f2 = FunctionField.make(2, ["x", "y", "z"])
    cases = []
    for fld, n, deg, dens in [
        (f3, 1, 5, (one, x, y, x + y)),
        (f3, 1, 3, (one, x)),
        (f2, 2, 2, (f2.const_poly(1), f2.var_poly(0))),
    ]:
        for k in range(2):
            # members: wp(u) + d(eta), then an exact d(eta)
            member = d(_span_form(fld, n - 1, deg, dens, gen))
            if k == 0:
                member = member + wp(_span_form(fld, n, deg, dens, gen))
            cases.append((member, (deg, dens)))
            # misses: a nonzero class, then a coefficient beyond the bounds
            if k == 0:
                xs = [fld.var(i) for i in range(fld.nvars)]
                miss = dlog(xs[0]).scale(xs[1])
                if n == 2:
                    miss = DiffForm.from_coeffs(fld, 2, {(0, 1): xs[2] / (xs[0] * xs[1])})
            else:
                miss = d(_span_form(fld, n - 1, deg, dens, gen)) + _span_form(
                    fld, n, deg + 3, dens, gen
                )
            cases.append((miss, (deg, dens)))
    return cases


def _answers(cases, bounds_for, exactness_first=False):
    """sha256 of the certificates, which cases were found, which were exact."""
    h = hashlib.sha256()
    found, exact = [], []
    for omega, key in cases:
        if exactness_first:
            exact.append(exhaustive_exactness(omega, bounds_for(key)))
        cert = solve_wp_plus_d(omega, bounds_for(key))
        h.update((print_certificate(cert) if cert is not None else "absent").encode())
        found.append(cert is not None)
        if not exactness_first:
            exact.append(exhaustive_exactness(omega, bounds_for(key)))
    return h.hexdigest(), found, exact


def test_one_shared_bounds_and_fresh_equal_bounds_agree():
    # found and absent targets interleave on each system
    cases = _cases()
    shared = {key: SearchBounds(*key) for _, key in cases}
    assert _answers(cases, shared.__getitem__) == (DIGEST, FOUND, EXACT)
    oracle._spaces.cache_clear()
    assert _answers(cases, lambda key: SearchBounds(*key)) == (DIGEST, FOUND, EXACT)


def test_exactness_first_gives_the_same_answers():
    cases = _cases()
    shared = {key: SearchBounds(*key) for _, key in cases}
    assert _answers(cases, shared.__getitem__, exactness_first=True) == (DIGEST, FOUND, EXACT)


def test_five_solves_build_one_system(monkeypatch):
    calls = {"candidates": 0, "wp": 0}
    candidate_terms = SearchBounds.candidate_terms
    wp_column = oracle.wp_column

    def count_candidates(self, field):
        calls["candidates"] += 1
        return candidate_terms(self, field)

    def count_wp(*args):
        calls["wp"] += 1
        return wp_column(*args)

    monkeypatch.setattr(SearchBounds, "candidate_terms", count_candidates)
    monkeypatch.setattr(oracle, "wp_column", count_wp)
    cases = _cases()[:4]
    bounds = SearchBounds(*cases[0][1])
    solve_wp_plus_d(cases[0][0], bounds)
    built = dict(calls)
    assert built["candidates"] == 1 and built["wp"] > 0
    for omega, _ in cases[1:] + cases[:1]:
        solve_wp_plus_d(omega, bounds)
    # an equal bounds value finds the same system
    solve_wp_plus_d(cases[0][0], SearchBounds(*cases[0][1]))
    assert calls == built


def test_one_factorization_per_degree_and_kind(monkeypatch):
    # five targets on one bounds value, each solved and tested for exactness
    # twice: one factorization per (form degree, with_wp), and no system
    # keeps its rows
    built = []

    class Counted(oracle.Factorization):
        def __init__(self, *args):
            built.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(oracle, "Factorization", Counted)
    cases = _cases()
    omega, key = cases[0]
    bounds = SearchBounds(*key)
    fld = omega.field
    x, y = fld.var(0), fld.var(1)
    targets = [omega, cases[1][0], cases[2][0], DiffForm.scalar(fld, x ** 3 - x + y),
               DiffForm.from_coeffs(fld, 2, {(0, 1): y / x})]
    for _ in range(2):
        for target in targets:
            solve_wp_plus_d(target, bounds)
            exhaustive_exactness(target, bounds)
    systems = oracle._spaces(bounds)[fld].systems
    assert sorted(systems) == [(0, True), (1, False), (1, True), (2, False), (2, True)]
    assert len(built) == len(systems) and all(built)
    for system in systems.values():
        assert isinstance(system.factorization, Counted)
        assert not hasattr(system, "rows") and not hasattr(system, "__dict__")


def _other_bounds(count):
    """count distinct bounds values on F2(x), none equal to those of _cases."""
    f2 = FunctionField.make(2, ["x"])
    omega = DiffForm.scalar(f2, f2.var(0))
    return omega, [SearchBounds(20 + i, (f2.const_poly(1),)) for i in range(count)]


def _count_builds(monkeypatch):
    """The (form degree, with_wp) of every System built from here on."""
    builds = []
    init = oracle.System.__init__

    def counted(self, *args):
        builds.append(args[1:])
        init(self, *args)

    monkeypatch.setattr(oracle.System, "__init__", counted)
    return builds


def test_entry_goes_with_its_bounds(monkeypatch):
    # an entry outlives the bounds it was stored under while their value is
    # among the RECENT most recently used, and goes after that
    builds = _count_builds(monkeypatch)
    omega, key = _cases()[0]
    other, values = _other_bounds(RECENT)
    for kept in (RECENT - 1, RECENT):
        oracle._spaces.cache_clear()
        bounds = SearchBounds(*key)
        assert solve_wp_plus_d(omega, bounds) is not None
        del bounds
        gc.collect()
        assert oracle._spaces.cache_info().currsize == 1
        for bounds in values[:kept]:
            solve_wp_plus_d(other, bounds)
        assert oracle._spaces.cache_info().currsize == min(kept + 1, RECENT)
        # a second solve on an equal value builds again only once the entry went
        built = len(builds)
        assert solve_wp_plus_d(omega, SearchBounds(*key)) is not None
        assert len(builds) - built == (kept == RECENT)
    assert oracle._spaces.cache_info().currsize == RECENT


def test_each_use_makes_a_value_the_most_recent(monkeypatch):
    # eviction drops the least recently used value, not the first stored:
    # a value used again within every RECENT - 1 others is never rebuilt,
    # however many values go by
    builds = _count_builds(monkeypatch)
    cases = _cases()
    key = cases[0][1]
    runs = 3
    other, values = _other_bounds(runs * (RECENT - 1))
    for run in range(runs):
        assert solve_wp_plus_d(cases[0][0], SearchBounds(*key)) is not None
        for bounds in values[run::runs]:
            solve_wp_plus_d(other, bounds)
    assert len(builds) == 1 + len(values)
    # one more value, and the one used RECENT values ago goes: using it
    # again builds its system again
    solve_wp_plus_d(other, SearchBounds(19, (other.field.const_poly(1),)))
    assert solve_wp_plus_d(cases[0][0], SearchBounds(*key)) is not None
    assert len(builds) == 3 + len(values)


def _race(bounds_for):
    """Four threads, half testing exactness first, answer every case at
    once; every thread must get the pinned answers."""
    cases = _cases()
    results = []

    def work(exactness_first):
        results.append(_answers(cases, bounds_for, exactness_first))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 2 == 1,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [(DIGEST, FOUND, EXACT)] * 4


def test_concurrent_callers_get_the_same_answers():
    # threads racing to build one missing system may both build it; the
    # build is deterministic, so every thread still gets the pinned answers
    shared = {key: SearchBounds(*key) for _, key in _cases()}
    _race(shared.__getitem__)


@pytest.mark.parametrize("cap", [RECENT, 2])
def test_concurrent_callers_with_fresh_bounds_get_the_same_answers(monkeypatch, cap):
    # every call makes its own equal bounds, so the threads also race on the
    # memo's order of use; below the three bounds values of the cases, they
    # evict each other's entries too
    monkeypatch.setattr(oracle, "_spaces", functools.lru_cache(maxsize=cap)(oracle._spaces.__wrapped__))
    _race(lambda key: SearchBounds(*key))
    assert oracle._spaces.cache_info().currsize == min(cap, 3)


# -- packed targets -------------------------------------------------------------------


def _reference_target(space, omega):
    """omega times D packed, formed on exponent tuples as a product
    polynomial and checked against the radix term by term."""
    packing = space.packing
    target = {}
    for idx, c in omega.coeffs.items():
        try:
            cofactor = poly_exact_div(space.common, c.den)
        except ValueError:
            return None
        for exp, v in (c.num * cofactor).terms.items():
            if max(exp) >= packing.radix:
                return None
            target[packing.slot(idx) + packing.exp(exp)] = v
    return target


def test_packed_targets_match_the_product_on_exponents():
    for omega, key in _cases():
        space = oracle.Space(SearchBounds(*key), omega.field)
        assert space.target(omega) == _reference_target(space, omega)


def test_target_outside_the_bounds_is_none(f3xy):
    x, y = f3xy.var_poly(0), f3xy.var_poly(1)
    one = f3xy.const_poly(1)
    space = oracle.Space(SearchBounds(2, (one, x, x + y)), f3xy)
    radix = space.packing.radix
    top = space.common.degree_in(0)
    # a denominator that does not divide D = (x (x + y))^3
    for den in (x ** 4, y, (x + y) ** 2 * y, x + one):
        assert space.target(DiffForm.scalar(f3xy, ratfunc_normalize(one, den))) is None
    # deg_x(a) + deg_x(D/b) reaches the radix; one below it packs
    for den in (one, x, x + y):
        e = radix - top + den.degree_in(0)
        over = ratfunc_normalize(x ** e + y, den)
        assert space.target(DiffForm.from_coeffs(f3xy, 1, {(1,): over})) is None
        below = DiffForm.from_coeffs(f3xy, 1, {(1,): ratfunc_normalize(x ** (e - 1) + y, den)})
        target = space.target(below)
        assert target is not None and target == _reference_target(space, below)


# -- warm replay at a larger bound ------------------------------------------------------

# pinned from the oracle that divided D by each target denominator on every
# call and back-substituted over every entry of the reduced pivot rows
DEGREE_20_DIGEST = "a23d3d8c1486f898b23a9f32d6d642d0eb7b13e428d4ccfb24ca03c4c344bee4"


def test_warm_certificates_at_degree_20_match_cold():
    # F3(x,y) at degree bound 20 (1,482 columns): each target is solved
    # cold, with the memo emptied, then twice warm on one system
    gen = random.Random(2020)
    f3 = FunctionField.make(3, ["x", "y"])
    x, y = f3.var_poly(0), f3.var_poly(1)
    dens = (f3.const_poly(1), x, y, x + y)
    bounds = SearchBounds(20, dens)
    cases = []
    for _ in range(3):
        cases.append(d(_span_form(f3, 0, 20, dens, gen)) + wp(_span_form(f3, 1, 20, dens, gen)))
    cases.append(d(_span_form(f3, 0, 20, dens, gen)))
    cases.append(cases[0] + dlog(f3.var(0)).scale(f3.var(1)))
    cases.append(_span_form(f3, 1, 23, dens, gen))

    def text(omega):
        cert = solve_wp_plus_d(omega, bounds)
        return print_certificate(cert) if cert is not None else "absent"

    cold = []
    for omega in cases:
        oracle._spaces.cache_clear()
        cold.append(text(omega))
    for _ in range(2):
        assert [text(omega) for omega in cases] == cold
    assert [t != "absent" for t in cold] == [True, True, True, True, False, False]
    assert hashlib.sha256("\n".join(cold).encode()).hexdigest() == DEGREE_20_DIGEST

"""Job lists of the katoforms benchmark workloads.

Each workload function takes the imported ``katoforms`` package, a seeded
``random.Random`` and a work directory, and returns the workload's fixed job
list.  Inputs are made here, from the seed alone, with the package's public
constructors; the package only receives the finished inputs.  A job is a
call into the package plus a check that compares the answer with the outcome
known by construction and returns the text that goes into the output digest.

All calls into the package look the function up on its module at call time
(``kf.solve_wp_plus_d``, ``kf.cli.run``), so the tracer's rebinding of those
names takes effect.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class Mismatch(Exception):
    """A job's answer differs from its expected outcome."""


@dataclass
class Job:
    label: str
    p: int
    call: Callable[[], object]
    check: Callable[[object], str]


# -- random inputs -----------------------------------------------------------------


def random_poly(kf, fld, rng: random.Random, max_degree: int, terms: int):
    """Sparse polynomial with per-variable degrees <= max_degree."""
    out: dict = {}
    for _ in range(terms):
        exp = tuple(rng.randint(0, max_degree) for _ in range(fld.nvars))
        s = (out.get(exp, 0) + rng.randint(1, fld.p - 1)) % fld.p
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return kf.MultiPoly(fld, out)


def random_form(kf, fld, n: int, max_degree: int, term_count: int, rng, dens):
    """Random n-form whose coefficients are polynomials over a denominator pool.

    Same distribution as the rational-coefficient witness test in the suite.
    """
    indices = list(range(fld.nvars))
    coeffs: dict = {}
    for _ in range(term_count):
        idx = tuple(sorted(rng.sample(indices, n)))
        num = random_poly(kf, fld, rng, max_degree, rng.randint(1, 3))
        c = kf.ratfunc_normalize(num, rng.choice(dens))
        if c.is_zero():
            continue
        s = coeffs.get(idx)
        s = c if s is None else s + c
        if s.is_zero():
            coeffs.pop(idx, None)
        else:
            coeffs[idx] = s
    return kf.DiffForm.from_coeffs(fld, n, coeffs)


def span_form(kf, fld, n: int, deg: int, dens, rng, terms: int = 2):
    """Random n-form with coefficients in the span of the oracle's candidates
    (monomials of total degree <= deg over a denominator from dens)."""
    if n < 0:
        return kf.DiffForm.zero(fld, n)
    idxs = [tuple(sorted(rng.sample(range(fld.nvars), n))) for _ in range(terms)]
    coeffs: dict = {}
    for idx in idxs:
        total = rng.randint(0, deg)
        exp = [0] * fld.nvars
        for _ in range(total):
            exp[rng.randrange(fld.nvars)] += 1
        mono = fld.monomial(tuple(exp), rng.randint(1, fld.p - 1))
        c = kf.ratfunc_normalize(mono, rng.choice(dens))
        coeffs[idx] = c if idx not in coeffs else coeffs[idx] + c
    return kf.DiffForm.from_coeffs(fld, n, coeffs)


def member(kf, fld, n: int, deg: int, dens, rng):
    """wp(u) + d(eta) with u, eta inside the search bounds (deg, dens)."""
    u = span_form(kf, fld, n, deg, dens, rng)
    eta = span_form(kf, fld, n - 1, deg, dens, rng)
    w = kf.wp(u) + kf.d(eta) if n >= 1 else kf.wp(u)
    if w.is_zero():
        w = kf.wp(kf.DiffForm.from_coeffs(fld, n, {tuple(range(n)): fld.var(0)}))
    return w


def symbol_form(kf, fld, slots, tail, c: int = 1):
    """c * tail * dlog(x_slots[0]) ^ ... : a nonzero class (absent at any bounds)."""
    coeff = fld.const(c) * fld.var(tail)
    for i in slots:
        coeff = coeff * fld.var(i).inv()
    return kf.DiffForm.from_coeffs(fld, len(slots), {tuple(slots): coeff})


# -- checks -------------------------------------------------------------------------


def found_check(kf, omega):
    """The job must return a certificate that verifies omega ~ 0."""
    zero = kf.DiffForm.zero(omega.field, omega.degree)

    def check(cert) -> str:
        if cert is None:
            raise Mismatch("expected a certificate, got none")
        if not kf.verify_certificate(omega, zero, cert):
            raise Mismatch("certificate does not verify")
        return kf.sexpr.print_certificate(cert)

    return check


def absent_check(cert) -> str:
    if cert is not None:
        raise Mismatch("expected absent-within-bounds, got a certificate")
    return "absent"


# -- witness-rational -----------------------------------------------------------------

WITNESS_JOBS = 48


def witness_rational(kf, rng: random.Random, workdir: Path) -> list[Job]:
    """congruence_witness on constructed members, oracle as fallback."""
    jobs = []
    for k in range(WITNESS_JOBS):
        p = (2, 3)[k % 2]
        fld = kf.FunctionField.make(p, ["x", "y"])
        x, y = fld.var(0), fld.var(1)
        dens = [fld.const_poly(1), x.num, (x + y).num, (x * y).num]
        u = random_form(kf, fld, 1, 2, 2, rng, dens)
        eta = random_form(kf, fld, 0, 2, 2, rng, dens)
        w = kf.wp(u) + kf.d(eta)
        bounds = kf.SearchBounds(5, tuple(dens))

        def call(w=w, bounds=bounds):
            return kf.congruence_witness(w) or kf.solve_wp_plus_d(w, bounds)

        jobs.append(Job(f"member p={p}", p, call, found_check(kf, w)))
    return jobs


# -- oracle-bounds ----------------------------------------------------------------------

# (p, variables, form degree n, numerator degree bound, denominators, found?, copies)
# Sorted by cost the classes run F2, deg 7, deg 9, deg 11.  As many F2 jobs
# as deg-9 and deg-11 jobs together puts the median job in the middle of the
# deg-7 class, and four deg-11 jobs put the tail (p77 of 44, the 34th job)
# in the middle of the deg-9 class, so neither statistic sits on the jump
# between two bounds or on the few costliest members of a class, which vary
# most with the seed.
ORACLE_CLASSES = [
    (3, "xy", 1, 7, "1,x,y,x+y", True, 6),
    (3, "xy", 1, 7, "1,x,y,x+y", False, 6),
    (3, "xy", 1, 9, "1,x,y,x+y", True, 6),
    (3, "xy", 1, 9, "1,x,y,x+y", False, 6),
    (3, "xy", 1, 11, "1,x,y,x+y", True, 2),
    (3, "xy", 1, 11, "1,x,y,x+y", False, 2),
    (2, "xyz", 1, 3, "1,x", True, 4),
    (2, "xyz", 1, 4, "1,x", False, 4),
    (2, "xyz", 2, 3, "1,x", False, 4),
    (2, "xyz", 2, 4, "1,x", True, 4),
]
# nonzero classes y dx/x, x dy/y, ... as (dlog slots, tail variable)
SYMBOLS = {
    ("xy", 1): [((0,), 1), ((1,), 0)],
    ("xyz", 1): [((0,), 1), ((1,), 2), ((2,), 0)],
    ("xyz", 2): [((0, 1), 2), ((1, 2), 0)],
}


def _dens(kf, fld, text: str):
    return [kf.sexpr.parse_form_text(t, fld).scalar_value().num for t in text.split(",")]


def oracle_bounds(kf, rng: random.Random, workdir: Path) -> list[Job]:
    """solve_wp_plus_d at growing bounds, each job with a known outcome."""
    jobs = []
    for p, names, n, deg, dens_text, found, copies in ORACLE_CLASSES:
        fld = kf.FunctionField.make(p, list(names))
        dens = _dens(kf, fld, dens_text)
        bounds = kf.SearchBounds(deg, tuple(dens))
        for _ in range(copies):
            w = member(kf, fld, n, deg, dens, rng)
            if found:
                check = found_check(kf, w)
            else:
                slots, tail = rng.choice(SYMBOLS[names, n])
                w = w + symbol_form(kf, fld, slots, tail, rng.randint(1, p - 1))
                check = absent_check

            def call(w=w, bounds=bounds):
                return kf.solve_wp_plus_d(w, bounds)

            outcome = "found" if found else "absent"
            label = f"F{p}({names}) n={n} deg={deg} {outcome}"
            jobs.append(Job(label, p, call, check))
    rng.shuffle(jobs)
    return jobs


# -- cli-batch -------------------------------------------------------------------------------


def write_specs(kf, workdir: Path) -> dict[str, str]:
    """Extension specs of the README commands, written as JSON files."""
    f2xy = kf.FunctionField.make(2, ["x", "y"])
    f2xyz = kf.FunctionField.make(2, ["x", "y", "z"])
    source = kf.FunctionField.make(2, ["X", "Y", "Z"])
    target = kf.FunctionField.make(2, ["X", "w", "u"])
    X, Y, Z = (source.var(i) for i in range(3))
    Xe, w, u = (target.var(i) for i in range(3))
    specs = {
        "ext": kf.build_adapted(f2xy, kf.AdaptedData(((0, 2), (1, 1)))),
        "ext3": kf.build_adapted(f2xyz, kf.AdaptedData(((0, 2),))),
        "sect4": kf.build_embedding(
            source,
            target,
            (Xe, w * w + Xe * u * u, u**4),
            (
                kf.InsepCert("X", 0, X),
                kf.InsepCert("w", 2, X * X * Z + Y * Y),
                kf.InsepCert("u", 2, Z),
            ),
        ),
    }
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, ext in specs.items():
        path = workdir / f"{name}.json"
        path.write_text(kf.extension_to_json(ext), encoding="utf-8")
        paths[name] = path.as_posix()
    return paths


INSTANCES = ["y", "x y", "x+y", "x^2 y", "y^3"]
WITT_S = ["y", "x+y", "1", "x y", "y^2+x"]
HYPERBOLIC_S = ["y", "x+y", "x y", "1"]
# generator patterns of the spec "ext" (pairs x:2, y:1)
PATTERNS = [{"j": 0}, {"j": 1}, {"t": 1, "k": "0,0"}, {"t": 1, "k": "1,0"}]


def _pick(rng: random.Random, pool: list, lo: int, hi: int) -> list:
    return rng.sample(pool, rng.randint(lo, hi))


def _adder(kf, jobs: list[Job]):
    """add(label, p, command, options, exit code, inspect(result), seed): append
    a cli.run job whose exit code and result must match."""

    def add(label, p, command, options, expect_code, inspect=None, seed=None):
        spec = kf.cli.JobSpec(command, options, kf.cli.DEFAULT_SEED if seed is None else seed)

        def check(out) -> str:
            code, report = out
            if code != expect_code:
                raise Mismatch(f"exit {code}, expected {expect_code}: {report.get('error')}")
            if inspect is not None:
                inspect(report.get("result", {}))
            return json.dumps(report, sort_keys=True)

        jobs.append(Job(label, p, lambda: kf.cli.run(spec), check))

    return add


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _cli_round(kf, rng: random.Random, paths: dict[str, str], jobs: list[Job]) -> None:
    """One job per README command example, arguments drawn from rng."""
    pf = kf.sexpr.print_form
    f2xy = kf.FunctionField.make(2, ["x", "y"])
    f3xy = kf.FunctionField.make(3, ["x", "y"])
    f2xyz = kf.FunctionField.make(2, ["x", "y", "z"])
    f2x = kf.FunctionField.make(2, ["x"])
    emitted: dict[int, tuple[str, str]] = {}  # slot -> (lhs, certificate) for verify-cert
    add = _adder(kf, jobs)

    def certified(lhs_text, slot=None):
        """Verify the report's certificate for lhs ~ 0; keep it for verify-cert."""
        def inspect(result):
            lhs = lhs_text if lhs_text is not None else result["restricted"]
            cert = kf.sexpr.parse_certificate(result["certificate"])
            form = kf.sexpr.parse_form_text(lhs, cert.field)
            zero = kf.DiffForm.zero(cert.field, form.degree)
            expect(kf.verify_certificate(form, zero, cert), "certificate does not verify")
            if slot is not None:
                emitted[slot] = (lhs, result["certificate"])
        return inspect

    for name in ("ext", "sect4"):
        add("validate-ext", 2, "validate-ext", {"ext": paths[name]}, 0,
            lambda r: expect(r["normalized"]["format"] == "katoforms-ext-1", "bad format"))

    dens = _dens(kf, f2xy, "1,x")
    for slot in range(3):
        text = pf(member(kf, f2xy, 1, 5, dens, rng))
        add("classify found", 2, "classify",
            {"form": text, "field": "F2(x,y)", "deg": 5, "dens": "1,x"}, 0,
            certified(text, slot))
    for _ in range(2):
        slots, tail = rng.choice(SYMBOLS["xy", 1])
        w = member(kf, f2xy, 1, 5, dens, rng) + symbol_form(kf, f2xy, slots, tail)
        add("classify absent", 2, "classify",
            {"form": pf(w), "field": "F2(x,y)", "deg": 5, "dens": "1,x"}, 2,
            lambda r: expect(r["class_witness"] == "absent-within-bounds", "not absent"))

    for fld, raw in ((f2xy, True), (f3xy, True), (f2xy, False), (f3xy, False)):
        v = random_form(kf, fld, rng.randint(0, 2), 2, 2, rng, [fld.const_poly(1)])
        options = {"form": pf(kf.sp(v)), "field": repr(fld)}
        if raw:
            options["raw"] = True

        def same_as(result, fld=fld, v=v):
            expect(kf.sexpr.parse_form(result["cartier"], fld) == v, "C(sp(v)) != v")

        add("cartier", fld.p, "cartier", options, 0, same_as)

    add("restrict sect4", 2, "restrict",
        {"form": "dX^dY", "ext": paths["sect4"], "data": "Z:2"}, 0,
        lambda r: expect(r["vanishes"] and not r["syntactic_kernel_member"],
                         "degree-eight example changed"))
    for _ in range(2):
        w = random_form(kf, f2xyz, rng.randint(1, 2), 2, 2, rng, [f2xyz.const_poly(1)])
        add("restrict adapted", 2, "restrict", {"form": pf(w), "ext": paths["ext3"]}, 0,
            lambda r: expect(r["vanishes"] == r["syntactic_kernel_member"],
                             "syntactic kernel test disagrees with restriction"))

    for idx, code in (((0, 1), 0), ((1, 2), 1), ((0, 1), 0), ((1, 2), 1)):
        f = random_poly(kf, f2xyz, rng, 2, 3)
        if f.is_zero():
            f = f2xyz.const_poly(1)
        w = kf.DiffForm.from_coeffs(f2xyz, 2, {idx: kf.ratfunc_normalize(f, f2xyz.const_poly(1))})
        add("kernel-test", 2, "kernel-test",
            {"form": pf(w), "field": "F2(x,y,z)", "data": "x:2"}, code,
            lambda r, want=(code == 0): expect(r["member"] is want, "wrong membership"))

    for _ in range(2):
        insts = _pick(rng, INSTANCES, 1, 2)
        add("kf-gens", 2, "kf-gens", {"ext": paths["ext"], "n": 1, "inst": "\n".join(insts)}, 0,
            lambda r, k=len(insts): expect(r["count"] == 4 * k, "wrong generator count"))

    for slot in range(3, 6):
        options = {"ext": paths["ext"], "n": 1, "inst": rng.choice(INSTANCES)}
        pattern = rng.choice(PATTERNS)
        options["kind"] = "linear" if "j" in pattern else "power"
        options.update(pattern)
        add("vanish-cert", 2, "vanish-cert", options, 0, certified(None, slot))

    # re-check the certificates emitted above; filled in while the pass runs
    for i in range(6):
        def verify_call(i=i):
            lhs, cert = emitted[i]
            return kf.cli.run(kf.cli.JobSpec(
                "verify-cert", {"lhs": lhs, "rhs": "(form 1)", "cert": cert}))

        jobs.append(Job("verify-cert", 2, verify_call, _verified_check(expect_ok=True)))

    def tampered_call():
        return kf.cli.run(kf.cli.JobSpec(
            "verify-cert", {"lhs": "u dv", "rhs": "(form 1)", "cert": emitted[5][1]}))

    jobs.append(Job("verify-cert tampered", 2, tampered_call, _verified_check(expect_ok=False)))

    for _ in range(2):
        s = _pick(rng, WITT_S, 1, 3)
        add("witt-gens", 2, "witt-gens", {"field": "F2(x,y)", "data": "x:2", "s": ",".join(s)}, 0,
            lambda r, k=len(s): expect(r["count"] == 3 * k, "wrong generator count"))

    for _ in range(3):
        options = {"ext": paths["ext"], "s": rng.choice(HYPERBOLIC_S)}
        options.update(rng.choice(PATTERNS))
        add("check-hyperbolic", 2, "check-hyperbolic", options, 0,
            lambda r: expect(r["verified"] is True, "chain not verified"))

    x = f2x.var(0)
    t = kf.ratfunc_normalize(random_poly(kf, f2x, rng, 3, 2), rng.choice([x.num, f2x.const_poly(1)]))
    odd = x ** (2 * rng.randint(0, 2) + 1)
    for c, check_trivial, code in ((t * t + t, False, 0), (t * t + t, True, 0),
                                   (odd + t * t + t, True, 2)):
        q = kf.QuadForm.binary(f2x, f2x.one(), c)
        options = {"form": kf.sexpr.print_quadform(q), "field": "F2(x)"}
        if check_trivial:
            options.update(check_trivial=True, deg=6, dens="1,x")

        def arf_ok(r, check_trivial=check_trivial, code=code):
            if check_trivial:
                expect(r["trivial"] == (True if code == 0 else "inconclusive-within-bounds"),
                       "wrong Arf triviality")

        add("arf", 2, "arf", options, code, arf_ok)

    for _ in range(2):
        slots = rng.choice(["x", "y", "x,y"])
        options = {"field": "F2(x,y)", "slots": slots}
        tail = rng.choice([None, "y", "x+y"])
        if tail:
            options["tail"] = tail
        name = f"{'f' if tail else 'e'}_{len(slots.split(','))}"
        add("kato-map", 2, "kato-map", options, 0,
            lambda r, name=name: expect(r["map"] == name, "wrong map"))

    for fld, found in ((f2xy, True), (f3xy, True), (f3xy, False)):
        dens_f = _dens(kf, fld, "1,x")
        w = member(kf, fld, 1, 4, dens_f, rng)
        if not found:
            slots, tail = rng.choice(SYMBOLS["xy", 1])
            w = w + symbol_form(kf, fld, slots, tail)
        options = {"form": pf(w), "field": repr(fld), "deg": 4, "dens": "1,x"}
        if found:
            add("oracle-solve found", fld.p, "oracle-solve", options, 0,
                certified(pf(w)))
        else:
            add("oracle-solve absent", fld.p, "oracle-solve", options, 2,
                lambda r: expect(r["witness"] == "absent-within-bounds", "not absent"))


CLI_ROUNDS = 3


def cli_batch(kf, rng: random.Random, workdir: Path) -> list[Job]:
    """In-process cli.run on the README commands with seeded arguments:
    CLI_ROUNDS rounds of every command, then selftest and bad inputs."""
    paths = write_specs(kf, workdir)
    jobs: list[Job] = []
    add = _adder(kf, jobs)
    for _ in range(CLI_ROUNDS):
        _cli_round(kf, rng, paths, jobs)
    add("selftest", 2, "selftest", {}, 0,
        lambda r: expect(all(s["status"] == "pass" for s in r["sections"]),
                         "a selftest section failed"),
        seed=rng.randrange(2**31))

    for command, options in (
        ("classify", {"form": "((", "field": "F2(x)"}),
        ("cartier", {"form": "y dx", "field": "F2(x,y)"}),
        ("validate-ext", {"ext": (workdir / "missing.json").as_posix()}),
        ("classify", {"form": "x dx", "field": "F4(x)"}),
    ):
        add(f"bad {command}", 2, command, options, 3,
            lambda r: None)
    return jobs


def _verified_check(expect_ok: bool):
    def check(out) -> str:
        code, report = out
        want = 0 if expect_ok else 1
        if code != want or report.get("result", {}).get("verified") is not expect_ok:
            raise Mismatch(f"verify-cert exit {code}, expected {want}")
        return json.dumps(report, sort_keys=True)

    return check


WORKLOADS = {
    "witness-rational": witness_rational,
    "oracle-bounds": oracle_bounds,
    "cli-batch": cli_batch,
}

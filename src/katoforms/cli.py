"""Batch command-line front-end.

Every invocation builds a JobSpec, runs it, and emits one JSON report with
echoed inputs.  Exit codes: 0 verified/true, 1 refuted/false,
2 inconclusive-within-bounds, 3 input error.  Reports are deterministic for
a fixed job and seed; the environment variable KATOFORMS_SEED overrides the
default seed used by randomized sections of ``selftest``.

Mathematical objects cross the boundary as S-expressions (see ``sexpr``);
forms may also be written in infix notation such as ``x dx`` or ``dX^dY``.
The value of a string option of the shape ``@path`` is the text of the file
at ``path``, on the command line and in a ``--job`` document alike; only
``--ext`` (also spelled ``--spec``) is itself a path and is opened as given.

Each command is declared once, in ``_COMMANDS``: its handler and its options
with their defaults.  The command-line parser, the type checks of ``--job``
options and the defaults a handler reads all come from that table.

``batch --jobs FILE`` runs many jobs in one process: FILE (``-`` for standard
input) holds one ``--job`` document per line, and each non-blank line gives
one output line ``{"code": <exit code>, "report": <report>}``, the report
being the one ``--job`` gives for that document run alone.  A malformed line
gets code 3 and the batch goes on; the batch exits 3 only when FILE cannot be
read, and 0 otherwise.  Jobs in one process share the oracle's memo of
systems and the memo of extensions: an extension file is parsed and its
identities certified once per process for each distinct content.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import Callable, Iterator, NoReturn, Optional

from . import sexpr
from .certificates import (
    exponent_reduction,
    monomial_split_certificate,
    pattern_value,
    power_certificate,
    verify_certificate,
)
from .errors import KatoformsError
from .extensions import (
    AdaptedData,
    build_adapted,
    extension_from_json,
    extension_to_json,
    nu_kernel_member,
    omega_kernel_member,
    restrict,
    square_class_kernel,
    square_class_kernel_oracle,
)
from .fields import (
    FunctionField,
    RatFunc,
    frobenius_compose,
    frobenius_decompose,
    partial,
    pth_root,
    random_ratfunc,
)
from .forms import (
    DiffForm,
    cartier,
    cartier_raw,
    d,
    dlog,
    form_class,
    is_exact,
    nu_member,
    random_form_rng,
    sp,
    wedge,
)
from .generators import (
    GeneratorSpec,
    KIND_LINEAR,
    KIND_POWER,
    Level,
    kernel_generators,
    make_instance,
    unit_vector,
    vanish_certificate,
)
from .kernels import IMPL_NAME
from .oracle import SearchBounds, exhaustive_exactness, solve_wp_plus_d
from .records import Record
from .witt import (
    PfisterSymbol,
    arf,
    bilinear_kernel_generators,
    hyperbolicity_certificate,
    kato_e,
    kato_f,
    quad_kernel_generator,
    quad_kernel_generators,
)

REPORT_FORMAT = "katoforms-report-1"
DEFAULT_SEED = 20240803


class JobSpec(Record):
    """One validated CLI job: command name, options, seed."""

    __slots__ = ("command", "options", "seed")
    _defaults = {"seed": DEFAULT_SEED}


def _load_field(options: dict) -> FunctionField:
    text = options.get("field")
    if not text:
        raise KatoformsError("missing --field")
    if text.lstrip().startswith("(field"):
        return sexpr.parse_field(text)
    return sexpr.parse_field_text(text)


@functools.lru_cache(maxsize=8)
def _extension(text: str):
    """The extension a spec text describes, parsed and certified once for
    each of the 8 most recently used texts; a text that fails to load is
    not kept.  Jobs share the value, which is immutable."""
    return extension_from_json(text)


def _load_ext(options: dict):
    path = options.get("ext")
    if not path:
        raise KatoformsError("missing --ext")
    # keyed by the file's content, so an edited file is read anew
    with open(path, "r", encoding="utf-8") as fh:
        return _extension(fh.read())


def _parse_data(text: str, fld: FunctionField) -> AdaptedData:
    """Pairs ``name:m`` of a comma-separated --data list, each naming a
    variable of the field and its exponent m."""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, m = chunk.partition(":")
        name = name.strip()
        if name not in fld.vars:
            raise KatoformsError(f"--data {chunk!r}: {name!r} is not a variable of {fld}")
        try:
            exponent = int(m)
        except ValueError:
            raise KatoformsError(f"--data {chunk!r} needs :m, an integer exponent") from None
        pairs.append((fld.vars.index(name), exponent))
    return AdaptedData(tuple(pairs))


def _pairs(fld: FunctionField, data: AdaptedData) -> tuple:
    """Generator system data ((b_i, m_i), ...) for distinguished variables."""
    return tuple((fld.var(i), m) for i, m in data.pairs)


def _adapted_pairs(ext, needs: str) -> tuple:
    """The system data of an adapted extension; ``needs`` opens the error."""
    if ext.adapted is None:
        raise KatoformsError(f"{needs} an adapted extension spec")
    return _pairs(ext.source, ext.adapted)


def _pattern_doc(g) -> dict:
    """The pattern part of a generator entry: its kind, then j or t and k."""
    if g.kind == KIND_LINEAR:
        return {"kind": g.kind, "j": g.j}
    return {"kind": g.kind, "t": g.t, "k": list(g.k)}


def _level_option(options: dict, r: int, linear: bool) -> Level:
    """The level picked by --j, (0, e_j), when linear, else by --t and --k;
    r is the number of pairs, the slots that --j and --k address."""
    if linear:
        if options["j"] is None:
            raise KatoformsError("--kind linear needs --j, a slot index")
        j = int(options["j"])
        if not 0 <= j < r:
            raise KatoformsError(f"--j {j} is not a slot index in 0..{r - 1}")
        return 0, unit_vector(r, j)
    if options["t"] is None:
        if options["j"] is not None:
            raise KatoformsError("--j picks a linear slot and needs --kind linear")
        raise KatoformsError("give either --j or --t/--k to pick the generator")
    if options["k"] is None:
        raise KatoformsError("--t needs --k, the comma-separated exponent vector")
    try:
        k = tuple(int(c) for c in str(options["k"]).split(","))
    except ValueError:
        raise KatoformsError(
            f"--k must be comma-separated integers, got {options['k']!r}"
        ) from None
    if len(k) != r:
        raise KatoformsError(f"--k needs {r} entries, one per pair, got {len(k)}")
    return int(options["t"]), k


def _scalars(text: str, fld: FunctionField) -> Iterator[tuple[str, RatFunc]]:
    """The scalars of a comma-separated list, each with the chunk it was read
    from, one at a time; empty chunks are skipped."""
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            yield chunk, sexpr.parse_form_text(chunk, fld).scalar_value()


def _parse_bounds(options: dict, fld: FunctionField) -> SearchBounds:
    deg = int(options["deg"])
    dens = []
    for chunk, f in _scalars(options["dens"], fld):
        if not f.is_poly():
            raise KatoformsError(f"denominator {chunk!r} must be a polynomial")
        dens.append(f.num)
    return SearchBounds(deg, tuple(dens))


def _bounds_doc(bounds: SearchBounds) -> dict:
    return {
        "max_degree": bounds.max_degree,
        "denominators": [repr(dn) for dn in bounds.denominators] or ["1"],
    }


# -- command handlers ---------------------------------------------------------


def _cmd_classify(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    omega = sexpr.parse_form_text(options["form"], fld)
    result: dict = form_class(omega)._asdict()
    bounds = _parse_bounds(options, fld)
    cert = solve_wp_plus_d(omega, bounds)
    result["witness_bounds"] = _bounds_doc(bounds)
    if cert is not None:
        result["class_witness"] = "found"
        result["certificate"] = sexpr.print_certificate(cert)
        return 0, result
    result["class_witness"] = "absent-within-bounds"
    return 2, result


def _cmd_cartier(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    omega = sexpr.parse_form_text(options["form"], fld)
    if options["raw"]:
        image = cartier_raw(omega)
    else:
        image = cartier(omega)
    return 0, {"cartier": sexpr.print_form(image)}


def _cmd_restrict(options: dict, seed: int) -> tuple[int, dict]:
    ext = _load_ext(options)
    omega = sexpr.parse_form_text(options["form"], ext.source)
    image = restrict(omega, ext)
    result = {
        "restricted": sexpr.print_form(image),
        "vanishes": image.is_zero(),
    }
    if options["data"]:
        data = _parse_data(options["data"], ext.source)
        result["syntactic_kernel_member"] = omega_kernel_member(omega, data)
    elif ext.adapted is not None:
        result["syntactic_kernel_member"] = omega_kernel_member(omega, ext.adapted)
    return 0, result


def _cmd_kernel_test(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    omega = sexpr.parse_form_text(options["form"], fld)
    data = _parse_data(options["data"], fld)
    if options["nu"]:
        member = nu_kernel_member(omega, data)
        kind = "nu-kernel"
    else:
        member = omega_kernel_member(omega, data)
        kind = "omega-kernel"
    return (0 if member else 1), {"test": kind, "member": member}


def _cmd_kf_gens(options: dict, seed: int) -> tuple[int, dict]:
    ext = _load_ext(options)
    pairs = _adapted_pairs(ext, "generator enumeration needs")
    fld = ext.source
    n = int(options["n"])
    insts = [
        sexpr.parse_form_text(line, fld)
        for line in options["inst"].splitlines()
        if line.strip()
    ]
    out = [
        {
            "trivial": g.trivial,
            "value": sexpr.print_form(g.value),
            **_pattern_doc(g.spec),
        }
        for g in kernel_generators(fld, pairs, n, insts)
    ]
    return 0, {"count": len(out), "generators": out}


def _cmd_verify_cert(options: dict, seed: int) -> tuple[int, dict]:
    cert = sexpr.parse_certificate(options["cert"])
    fld = cert.field
    lhs = sexpr.parse_form_text(options["lhs"], fld)
    rhs = sexpr.parse_form_text(options["rhs"], fld)
    ok = verify_certificate(lhs, rhs, cert)
    return (0 if ok else 1), {"verified": ok}


def _cmd_vanish_cert(options: dict, seed: int) -> tuple[int, dict]:
    ext = _load_ext(options)
    pairs = _adapted_pairs(ext, "vanishing certificates need")
    n = int(options["n"])
    inst = sexpr.parse_form_text(options["inst"], ext.source)
    kind = options["kind"]
    level = _level_option(options, len(pairs), kind == KIND_LINEAR)
    spec = GeneratorSpec(pairs, n, level)
    if spec.kind != kind:
        raise KatoformsError(f"level {level} is not of --kind {kind}")
    g = make_instance(spec, inst)
    cert = vanish_certificate(g, ext)
    return 0, {
        "value": sexpr.print_form(g.value),
        "restricted": sexpr.print_form(restrict(g.value, ext)),
        "certificate": sexpr.print_certificate(cert),
        "verified": True,
    }


def _cmd_witt_gens(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    data = _parse_data(options["data"], fld)
    pairs = _pairs(fld, data)
    s_list = [s for _, s in _scalars(options["s"], fld)]
    out = [
        {
            "s": sexpr.print_ratfunc(g.s),
            "tail": sexpr.print_ratfunc(g.tail),
            "form": sexpr.print_quadform(g.form),
            **_pattern_doc(g),
        }
        for g in quad_kernel_generators(pairs, s_list)
    ]
    return 0, {"count": len(out), "generators": out}


def _cmd_check_hyperbolic(options: dict, seed: int) -> tuple[int, dict]:
    ext = _load_ext(options)
    pairs = _adapted_pairs(ext, "hyperbolicity checks need")
    fld = ext.source
    s = sexpr.parse_form_text(options["s"], fld).scalar_value()
    level = _level_option(options, len(pairs), options["j"] is not None)
    g = quad_kernel_generator(pairs, s, level)
    if options["form"]:
        supplied = sexpr.parse_quadform(options["form"], fld)
        if supplied != g.form:
            raise KatoformsError("supplied form does not match the requested generator")
    chain = hyperbolicity_certificate(g, ext)
    steps = []
    for lhs, rhs, cert in chain.steps:
        steps.append(
            {
                "from": sexpr.print_quadform(lhs),
                "to": sexpr.print_quadform(rhs),
                "matrix": [[sexpr.print_ratfunc(e) for e in row] for row in cert.matrix],
            }
        )
    return 0, {
        "form": sexpr.print_quadform(g.form),
        "restricted": sexpr.print_quadform(chain.restricted),
        "steps": steps,
        "final": sexpr.print_quadform(chain.final_form),
        "lagrangian": [
            [sexpr.print_ratfunc(e) for e in v] for v in chain.lagrangian.basis
        ],
        "verified": True,
    }


def _cmd_arf(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    q = sexpr.parse_quadform(options["form"], fld)
    rep = arf(q)
    result = {"arf": sexpr.print_ratfunc(rep)}
    if options["check_trivial"]:
        bounds = _parse_bounds(options, fld)
        result["bounds"] = _bounds_doc(bounds)
        cert = solve_wp_plus_d(DiffForm.scalar(fld, rep), bounds)
        if cert is not None:
            result["trivial"] = True
            return 0, result
        result["trivial"] = "inconclusive-within-bounds"
        return 2, result
    return 0, result


def _cmd_kato_map(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    slots = tuple(s for _, s in _scalars(options["slots"], fld))
    if options["tail"]:
        tail = sexpr.parse_form_text(options["tail"], fld).scalar_value()
        image = kato_f(PfisterSymbol(slots, tail))
        name = f"f_{len(slots)}"
    else:
        image = kato_e(PfisterSymbol(slots))
        name = f"e_{len(slots)}"
    return 0, {"map": name, "image": sexpr.print_form(image)}


def _cmd_oracle_solve(options: dict, seed: int) -> tuple[int, dict]:
    fld = _load_field(options)
    omega = sexpr.parse_form_text(options["form"], fld)
    bounds = _parse_bounds(options, fld)
    result: dict = {"bounds": _bounds_doc(bounds)}
    cert = solve_wp_plus_d(omega, bounds)
    if cert is not None:
        result["witness"] = "found"
        result["certificate"] = sexpr.print_certificate(cert)
        return 0, result
    result["witness"] = "absent-within-bounds"
    return 2, result


def _cmd_validate_ext(options: dict, seed: int) -> tuple[int, dict]:
    ext = _load_ext(options)
    return 0, {"normalized": json.loads(extension_to_json(ext))}


# -- selftest -------------------------------------------------------------------


def _check(cond: bool, what: str) -> None:
    """A selftest check that stays in force under ``python -O``."""
    if not cond:
        raise AssertionError(what)


def _section_fields(rng: random.Random) -> None:
    for p, m in [(2, 1), (2, 2), (3, 2)]:
        fld = FunctionField.make(p, [f"x{i+1}" for i in range(m)])
        pool = [fld.const_poly(1), fld.var_poly(0)]
        for _ in range(40):
            f = random_ratfunc(fld, rng, 3, 3, pool)
            _check(
                frobenius_compose(fld, frobenius_decompose(f)) == f,
                "Frobenius decomposition round trip",
            )
            g = random_ratfunc(fld, rng, 2, 2)
            _check(pth_root(g**p) == g, "p-th root of a p-th power")
            h = random_ratfunc(fld, rng, 2, 2)
            i = rng.randrange(m)
            lhs = partial(f * h, i)
            _check(lhs == f * partial(h, i) + h * partial(f, i), "Leibniz rule")


def _section_forms(rng: random.Random) -> None:
    for p, m in [(2, 2), (3, 2)]:
        fld = FunctionField.make(p, [f"x{i+1}" for i in range(m)])
        for _ in range(40):
            n = rng.randint(0, 2)
            w = random_form_rng(fld, n, 3, 2, rng)
            _check(d(d(w)).is_zero(), "d(d(w)) = 0")
            _check(cartier_raw(sp(w)) == w, "C(sp(w)) = w")
            if n < m:
                _check(cartier_raw(d(w)).is_zero(), "C(d(w)) = 0")
            rhs, cert = power_certificate(w, rng.randint(0, 3))
            _check(verify_certificate(rhs, w, cert), "power certificate verifies")
        a = random_ratfunc(fld, rng, 2, 2, nonzero=True)
        b = random_ratfunc(fld, rng, 2, 2, nonzero=True)
        _check(nu_member(wedge(dlog(a), dlog(b))), "dlog a ^ dlog b is log-fixed")


def _section_certificates(rng: random.Random) -> None:
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        pool = [fld.var(0), fld.var(1), fld.var(0) + fld.var(1)]
        for _ in range(25):
            r = rng.randint(1, 2)
            bs = [rng.choice(pool) for _ in range(r)]
            ks = [rng.randint(1, 4) for _ in range(r)]
            v = random_form_rng(fld, rng.randint(0, 1), 2, 2, rng)
            rhs, cert = monomial_split_certificate(bs, ks, v)
            _check(
                verify_certificate(pattern_value(bs, 0, ks, v), rhs, cert),
                "monomial split certificate verifies",
            )
            t = rng.randint(1, 2)
            red = exponent_reduction(bs, [k + p for k in ks], t, v)
            _check(
                verify_certificate(red.lhs_value(), red.rhs_value(), red.certificate),
                "exponent reduction certificate verifies",
            )


def _section_oracle(rng: random.Random) -> None:
    for p in (2, 3):
        fld = FunctionField.make(p, ["x"])
        xv = fld.var(0)
        pool = [fld.const_poly(1), xv.num]
        bounds = SearchBounds(8, (fld.const_poly(1), xv.num, (xv * xv).num))
        for _ in range(12):
            w = random_form_rng(fld, 1, 5, 2, rng, den_pool=pool)
            _check(
                is_exact(w) == exhaustive_exactness(w, bounds),
                "exactness rule agrees with the bounded search",
            )


def _section_extensions(rng: random.Random) -> None:
    fld = FunctionField.make(2, ["x", "y", "z"])
    data = AdaptedData(((0, 2), (1, 1)))
    ext = build_adapted(fld, data)
    for _ in range(40):
        n = rng.randint(0, 2)
        w = random_form_rng(fld, n, 2, 2, rng)
        _check(
            omega_kernel_member(w, data) == restrict(w, ext).is_zero(),
            "syntactic kernel test agrees with restriction",
        )
        if n <= 1:
            _check(
                restrict(d(w), ext) == d(restrict(w, ext)),
                "restriction commutes with d",
            )
    for _ in range(20):
        f = random_ratfunc(fld, rng, 3, 3)
        _check(
            square_class_kernel(f, data) == square_class_kernel_oracle(f, ext),
            "square-class kernel test agrees with its oracle",
        )


def _section_witt(rng: random.Random) -> None:
    fld = FunctionField.make(2, ["x", "y"])
    x, y = fld.var(0), fld.var(1)
    ext = build_adapted(fld, AdaptedData(((0, 2),)))
    for s in [y, x + y, fld.one()]:
        for g in quad_kernel_generators(((x, 2),), [s]):
            _check(
                hyperbolicity_certificate(g, ext).verify(),
                "hyperbolicity chain verifies",
            )
    ext1 = build_adapted(fld, AdaptedData(((0, 1),)))
    bilinear_kernel_generators(ext1, [x, x * y * y, fld.one()])


_SELFTEST_SECTIONS: dict[str, Callable[[random.Random], None]] = {
    "fields": _section_fields,
    "forms": _section_forms,
    "certificates": _section_certificates,
    "oracle": _section_oracle,
    "extensions": _section_extensions,
    "witt": _section_witt,
}


def _cmd_selftest(options: dict, seed: int) -> tuple[int, dict]:
    wanted = None
    if options["sections"]:
        wanted = {s.strip() for s in options["sections"].split(",") if s.strip()}
        unknown = sorted(wanted - _SELFTEST_SECTIONS.keys())
        if unknown:
            raise KatoformsError(f"unknown selftest sections: {', '.join(unknown)}")
    rows = []
    failed = False
    for name, fn in _SELFTEST_SECTIONS.items():
        if wanted is not None and name not in wanted:
            rows.append({"section": name, "status": "skipped"})
            continue
        try:
            fn(random.Random(seed))
            rows.append({"section": name, "status": "pass"})
        except AssertionError as exc:
            rows.append({"section": name, "status": "fail", "detail": str(exc)})
            failed = True
        except Exception as exc:  # a section that crashes has failed too
            detail = f"{type(exc).__name__}: {exc}"
            rows.append({"section": name, "status": "fail", "detail": detail})
            failed = True
    return (1 if failed else 0), {
        "kernels": IMPL_NAME,
        "seed": seed,
        "sections": rows,
    }


# -- the command table ----------------------------------------------------------

REQUIRED = object()  # the default of an option a command cannot run without

# Each option name means the same in every command: a default of False makes
# it a flag, and these tables say which names take integers, which take one
# of a fixed set of values and which have a second spelling.
_INTS = frozenset({"deg", "n", "j", "t"})
_CHOICES = {"kind": (KIND_LINEAR, KIND_POWER)}
_SPELLINGS = {"ext": ("--ext", "--spec"), "check_trivial": ("--check-trivial",)}
_NOT_READ = _INTS | {"ext"}  # --ext is itself a path
_BOUNDS = {"deg": 6, "dens": "1"}
_LEVEL = {"j": None, "t": None, "k": None}

_COMMANDS: dict[str, tuple[Callable[[dict, int], tuple[int, dict]], dict]] = {
    "classify": (_cmd_classify, {"form": REQUIRED, "field": REQUIRED, **_BOUNDS}),
    "cartier": (_cmd_cartier, {"form": REQUIRED, "field": REQUIRED, "raw": False}),
    "restrict": (_cmd_restrict, {"form": REQUIRED, "ext": REQUIRED, "data": None}),
    "kernel-test": (
        _cmd_kernel_test,
        {"form": REQUIRED, "field": REQUIRED, "data": REQUIRED, "nu": False},
    ),
    "kf-gens": (_cmd_kf_gens, {"ext": REQUIRED, "n": REQUIRED, "inst": REQUIRED}),
    "verify-cert": (
        _cmd_verify_cert, {"lhs": REQUIRED, "rhs": REQUIRED, "cert": REQUIRED}
    ),
    "vanish-cert": (
        _cmd_vanish_cert,
        {"ext": REQUIRED, "n": REQUIRED, "inst": REQUIRED, "kind": KIND_POWER, **_LEVEL},
    ),
    "witt-gens": (_cmd_witt_gens, {"field": REQUIRED, "data": REQUIRED, "s": REQUIRED}),
    "check-hyperbolic": (
        _cmd_check_hyperbolic, {"form": None, "ext": REQUIRED, "s": REQUIRED, **_LEVEL}
    ),
    "arf": (
        _cmd_arf,
        {"form": REQUIRED, "field": REQUIRED, "check_trivial": False, **_BOUNDS},
    ),
    "kato-map": (_cmd_kato_map, {"field": REQUIRED, "slots": "", "tail": None}),
    "oracle-solve": (_cmd_oracle_solve, {"form": REQUIRED, "field": REQUIRED, **_BOUNDS}),
    "validate-ext": (_cmd_validate_ext, {"ext": REQUIRED}),
    "selftest": (_cmd_selftest, {"sections": None}),
}


def _handler_options(defaults: dict, given: dict) -> dict:
    """The options a handler reads: the command's defaults under the given
    values, with each string option but the path --ext read from its file
    when it has the shape ``@path``."""
    options = {name: v for name, v in defaults.items() if v is not REQUIRED}
    options.update(given)
    for name in defaults:
        value = options.get(name)
        if name not in _NOT_READ and isinstance(value, str) and value.startswith("@"):
            with open(value[1:], "r", encoding="utf-8") as fh:
                options[name] = fh.read().strip()
    return options


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute a job; returns (exit status, report document)."""
    report = {
        "format": REPORT_FORMAT,
        "command": job.command,
        "inputs": job.options,
        "seed": job.seed,
    }
    handler, defaults = _COMMANDS.get(job.command, (None, {}))
    if handler is None:
        report["error"] = f"unknown command {job.command!r}"
        return 3, report
    try:
        code, result = handler(_handler_options(defaults, job.options), job.seed)
    except (KatoformsError, OSError, KeyError, ValueError) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        return 3, report
    report["result"] = result
    return code, report


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are input errors: a JSON report, exit 3.

    Subparsers are made with the parser's own class, so they report alike;
    ``--help`` still prints the usage and exits 0.
    """

    def error(self, message: str) -> NoReturn:
        sys.exit(_input_error(f"{self.prog}: {message}"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="katoforms",
        description="exact differential-form and quadratic-form calculus "
        "over rational function fields of positive characteristic",
    )
    parser.add_argument("--out", help="write the JSON report to this file")
    parser.add_argument("--job", help="run a JobSpec from a JSON file")
    sub = parser.add_subparsers(dest="command")
    for command, (_, defaults) in _COMMANDS.items():
        sp_ = sub.add_parser(command)
        # accepted after the subcommand too; SUPPRESS keeps a top-level value
        sp_.add_argument(
            "--out", default=argparse.SUPPRESS, help="write the JSON report here"
        )
        for name, default in defaults.items():
            if default is REQUIRED:
                kwargs: dict = {"required": True}
            elif default is False:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"default": default}
            if name in _INTS:
                kwargs["type"] = int
            if name in _CHOICES:
                kwargs["choices"] = _CHOICES[name]
            sp_.add_argument(*_SPELLINGS.get(name, (f"--{name}",)), dest=name, **kwargs)
    batch = sub.add_parser("batch")
    batch.add_argument("--out", default=argparse.SUPPRESS, help="write the report lines here")
    batch.add_argument(
        "--jobs", required=True, help="one --job document per line; - reads standard input"
    )
    return parser


def _job_option_error(command: str, options: dict) -> Optional[str]:
    """Why a job option's value is not one its flag takes, or None.

    A flag takes a bool, an integer option an int or a string, any other
    option a string, and an option with choices one of them; options of
    unknown commands and names the command does not define are left to it.
    """
    defaults = _COMMANDS.get(command, (None, {}))[1]
    for name, value in options.items():
        if name not in defaults:
            continue
        if defaults[name] is False:
            ok, wanted = isinstance(value, bool), "a boolean"
        elif name in _INTS:
            ok = isinstance(value, (int, str)) and not isinstance(value, bool)
            wanted = "an integer or a string"
        else:
            ok, wanted = isinstance(value, str), "a string"
        if name in _CHOICES and value not in _CHOICES[name]:
            ok, wanted = False, f"one of {list(_CHOICES[name])}"
        if not ok:
            return f"option {name!r} of {command!r} must be {wanted}, got {value!r}"
    return None


def _error_report(message: str) -> dict:
    """The report of an input rejected before any job runs."""
    return {"format": REPORT_FORMAT, "error": message}


def _input_error(message: str) -> int:
    """Print the JSON report of an input rejected before any job runs."""
    print(json.dumps(_error_report(message), indent=2))
    return 3


def _job_document(text: str, seed: int) -> JobSpec:
    """The job of a ``--job`` document, its seed defaulting to ``seed``;
    raises ValueError saying why the text is no valid job document."""
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested deeper than the parser's stack
        raise ValueError(str(exc)) from None
    if (
        not isinstance(doc, dict)
        or not isinstance(doc.get("command"), str)
        or not isinstance(doc.get("options", {}), dict)
        or not isinstance(doc.get("seed", 0), int)
        or isinstance(doc.get("seed"), bool)
    ):
        raise ValueError("malformed job document")
    problem = _job_option_error(doc["command"], doc.get("options", {}))
    if problem is not None:
        raise ValueError(problem)
    return JobSpec(
        command=doc["command"], options=doc.get("options", {}), seed=doc.get("seed", seed)
    )


def _batch_line(text: str, seed: int) -> str:
    """The output line of one batch line: its exit code and the report that
    ``--job`` gives for the same document."""
    try:
        job = _job_document(text, seed)
    except ValueError as exc:
        code, report = 3, _error_report(str(exc))
    else:
        code, report = run(job)
    return json.dumps({"code": code, "report": report}, sort_keys=True)


def _write(out: Optional[str], text: str, code: int = 0) -> int:
    """Write text to the file ``out``, or to standard output when it is None;
    returns code, or 3 when ``out`` cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _input_error(f"cannot write the report to --out: {exc}")
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    env_seed = os.environ.get("KATOFORMS_SEED", str(DEFAULT_SEED))
    try:
        seed = int(env_seed)
    except ValueError:
        return _input_error(f"KATOFORMS_SEED must be an integer, got {env_seed!r}")
    if ns.job:
        try:
            with open(ns.job, "r", encoding="utf-8") as fh:
                job = _job_document(fh.read(), seed)
        except (OSError, ValueError) as exc:
            return _input_error(str(exc))
    elif ns.command == "batch":
        try:
            if ns.jobs == "-":
                lines = sys.stdin.read().splitlines()
            else:
                with open(ns.jobs, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
        except (OSError, ValueError) as exc:
            return _input_error(f"cannot read --jobs: {exc}")
        return _write(ns.out, "".join(_batch_line(t, seed) + "\n" for t in lines if t.strip()))
    elif ns.command:
        options = {
            k: v
            for k, v in vars(ns).items()
            # unset options are None and unset flags False; an integer 0 is a value
            if k not in ("command", "out", "job") and v is not None and v is not False
        }
        job = JobSpec(command=ns.command, options=options, seed=seed)
    else:
        parser.print_help()
        return 3
    code, report = run(job)
    return _write(ns.out, json.dumps(report, indent=2, sort_keys=True) + "\n", code)


if __name__ == "__main__":
    sys.exit(main())

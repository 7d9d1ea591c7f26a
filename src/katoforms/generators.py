"""Generator systems for the restriction kernel on classes of forms.

For a purely inseparable extension built from data (b_1, m_1), ..., (b_r, m_r)
the kernel of the restriction on classes modulo wp + d is additively spanned
by the instances of one pattern at the admissible levels (t, k):

    b_1^k(1) ... b_r^k(r) (d v)^[p^t]

* level 0 with k = e_j, a unit vector: the linear family b_j d(v);
* power levels 1 <= t <= e-1, 0 <= k(i) < p^t, max(1, p^(t - m_i + 1))
  dividing k(i): the power family;

with e = max m_i.  ``admissible_level`` states this rule once: generator
specs and the quadratic generators of ``witt`` check their levels with it,
and ``generator_levels`` lists exactly the levels it admits.  A generator
record keeps its pattern as one value, the level (t, k), so one formula
(``certificates.pattern_value``) covers both families; the family names ``kind``
with the slot ``j``, or ``t`` and ``k``, are read-only views of it.  This
module enumerates instances over a user-supplied list of instantiating forms,
constructs the explicit witness that every instance restricts to a
congruence-trivial form over the extension (the implementable inclusion),
produces the logarithmic-shaped variant of the same system, and rewrites
instances under the two rebasing moves (permutation, and trading (b, m)
against (b^p, m+1)) with certified output.

The roots beta_i = phi(b_i)^(1/p^(m_i)) that the witnesses need are taken
from the embedding (``ExtensionSpec.root``), so they exist over every
certified extension whose data have them, whether or not the b_i are
distinguished variables.  The vanishing witness alone still needs an
adapted extension: its telescope needs restriction to commute with sp.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .certificates import (
    Certificate,
    ReductionResult,
    congruence_witness,
    exponent_reduction,
    monomial,
    monomial_split_parts,
    pattern_value,
    power_certificate,
    verify_certificate,
)
from .errors import BadExponent, CertificateFailed, UnsupportedExtension
from .extensions import ExtensionSpec, restrict
from .fields import FunctionField, RatFunc, pth_root
from .forms import DiffForm, d, dlog_wedge, nu_member, wedge
from .oracle import SearchBounds, solve_wp_plus_d
from .records import Record

KIND_LINEAR = "linear"
KIND_POWER = "power"

# a pattern (t, k): the power level t and the exponent vector k
Level = tuple[int, tuple[int, ...]]


def pattern_divisor(p: int, t: int, m: int) -> int:
    return max(1, p ** (t - m + 1))


def unit_vector(r: int, j: int) -> tuple[int, ...]:
    """e_j of length r; all zeros when j is not a slot index."""
    return tuple(int(l == j) for l in range(r))


def _with(seq: Sequence, i: int, item) -> tuple:
    """seq with its entry i replaced by item."""
    return tuple(item if l == i else x for l, x in enumerate(seq))


def admissible_level(pairs: Sequence[tuple[RatFunc, int]], level: Level) -> Level:
    """The level as (t, k) with k a tuple when the system admits it (the
    rule in the module docstring), else BadExponent."""
    t, k = level[0], tuple(level[1])
    if len(k) != len(pairs):
        raise BadExponent("exponent vector length mismatch")
    if t == 0:
        if sorted(k) != [0] * (len(k) - 1) + [1]:
            raise BadExponent(f"level 0 needs a unit exponent vector, got {k}")
        return t, k
    p = pairs[0][0].field.p
    e = max(m for _, m in pairs)
    if not 1 <= t <= e - 1:
        raise BadExponent(f"level t={t} outside 1..{e - 1}")
    for ki, (_, mi) in zip(k, pairs):
        if not 0 <= ki < p**t:
            raise BadExponent(f"exponent {ki} outside [0, p^t)")
        if ki % pattern_divisor(p, t, mi):
            raise BadExponent(f"exponent {ki} violates divisibility for m={mi}, t={t}")
    return t, k


class Pattern:
    """The level (t, k) of a generator read in the names of its family.

    Level (0, e_j) is the linear slot: kind "linear" with j, and t = k = None.
    Any other level is a power pattern: kind "power" with t and k, and
    j = None.
    """

    __slots__ = ()

    level: Level

    @property
    def kind(self) -> str:
        return KIND_LINEAR if self.level[0] == 0 else KIND_POWER

    @property
    def j(self) -> Optional[int]:
        return self.level[1].index(1) if self.level[0] == 0 else None

    @property
    def t(self) -> Optional[int]:
        return self.level[0] or None

    @property
    def k(self) -> Optional[tuple[int, ...]]:
        return None if self.level[0] == 0 else self.level[1]


class GeneratorSpec(Pattern, Record):
    """One admissible pattern of the generator system.

    pairs is the full system data ((b_i, m_i), ...) and level the pattern
    (t, k): level 0 needs a unit vector k = e_j, a level t >= 1 the range and
    divisibility constraints.
    """

    __slots__ = ("pairs", "n", "level")

    def __init__(self, pairs: tuple[tuple[RatFunc, int], ...], n: int, level: Level) -> None:
        if not pairs:
            raise ValueError("empty generator system")
        if any(b.is_zero() for b, _ in pairs):
            raise ValueError("generator elements must be nonzero")
        if any(m < 1 for _, m in pairs):
            raise ValueError("all exponents m_i must be >= 1")
        if n < 1:
            raise ValueError("generators exist in degree >= 1 only")
        super().__init__(pairs, n, admissible_level(pairs, level))

    @property
    def field(self) -> FunctionField:
        return self.pairs[0][0].field


class GeneratorInstance(Record):
    """A pattern instantiated with a concrete form of one degree lower."""

    __slots__ = ("spec", "inst", "value")

    @property
    def trivial(self) -> bool:
        """An all-zero exponent vector: the pattern is a plain power of d(v)."""
        return not any(self.spec.level[1])


def make_instance(spec: GeneratorSpec, inst: DiffForm) -> GeneratorInstance:
    """Instance value (prod b^k)(d v)^[p^t] at the spec's level."""
    if inst.degree != spec.n - 1:
        raise BadExponent(f"instantiating form must have degree {spec.n - 1}")
    value = pattern_value([b for b, _ in spec.pairs], *spec.level, inst)
    return GeneratorInstance(spec, inst, value)


def power_patterns(
    pairs: Sequence[tuple[RatFunc, int]], p: int
) -> list[tuple[int, tuple[int, ...]]]:
    """All admissible (t, k) patterns for the system, in lexicographic order."""
    e = max(m for _, m in pairs)
    out = []
    for t in range(1, e):
        choices = []
        for _, m in pairs:
            step = pattern_divisor(p, t, m)
            choices.append(list(range(0, p**t, step)))
        for k in itertools.product(*choices):
            out.append((t, k))
    return out


def generator_levels(pairs: Sequence[tuple[RatFunc, int]], p: int) -> list[Level]:
    """Every pattern of the system as a level: linear slots first, then power."""
    r = len(pairs)
    return [(0, unit_vector(r, j)) for j in range(r)] + power_patterns(pairs, p)


def kernel_generators(
    field: FunctionField,
    pairs: Sequence[tuple[RatFunc, int]],
    n: int,
    insts: Sequence[DiffForm],
) -> list[GeneratorInstance]:
    """All generator instances over the given instantiating forms.

    Degree 0 has no generators (there is nothing below to differentiate);
    all-zero power patterns are emitted but flagged trivial.
    """
    if n < 1:
        return []
    pairs = tuple(pairs)
    levels = generator_levels(pairs, field.p)
    return [
        make_instance(GeneratorSpec(pairs, n, level), inst)
        for inst in insts
        for level in levels
    ]


# -- vanishing over the extension ---------------------------------------------


def root_monomial(
    pairs: Sequence[tuple[RatFunc, int]], k: Sequence[int], shift: int, ext: ExtensionSpec
) -> RatFunc:
    """prod beta_i^((p^(m_i) k_i) / p^shift) in E, where beta_i is the
    p^(m_i)-th root of phi(b_i) (``ExtensionSpec.root``)."""
    roots = [ext.root(b, m) for b, m in pairs]
    if any(root is None for root in roots):
        raise UnsupportedExtension("generator data has no p^m-th root over the extension")
    p = ext.target.p
    return monomial(ext.target, roots, [(p**m * ki) // p**shift for ki, (_, m) in zip(k, pairs)])


def vanish_certificate(g: GeneratorInstance, ext: ExtensionSpec) -> Certificate:
    """Explicit witness that the instance restricts to a trivial class over E.

    At level (t, k) every exponent p^(m_i) k(i) is divisible by p^(t+1), so
    the restriction is the t-fold semilinear power of c^p d(v) for a
    monomial c: the power telescopes into the wp slot and d(c^p v) is the
    exact slot.  At level 0 (b_j d(v)) the telescope is empty and the
    witness is purely exact.

    The telescope needs restriction to commute with sp, which the monomial
    images of an adapted extension give; over any other extension this
    raises ``UnsupportedExtension``.
    """
    if ext.adapted is None:
        raise UnsupportedExtension("vanishing witnesses need an adapted extension")
    t, k = g.spec.level
    root_mono = root_monomial(g.spec.pairs, k, t, ext)
    target = ext.target
    value_e = restrict(g.value, ext)
    if value_e.is_zero():
        return Certificate.trivial(target, g.value.degree)
    inst_e = restrict(g.inst, ext)
    _, telescope = power_certificate(d(inst_e).scale(root_mono), t)
    cert = Certificate(u=telescope.u, eta=inst_e.scale(root_mono), field=target)
    if not verify_certificate(value_e, DiffForm.zero(target, g.value.degree), cert):
        raise CertificateFailed("vanishing witness failed to verify")
    return cert


# -- logarithmic-shaped generators ---------------------------------------------


class LogGenerator(Pattern, Record):
    """Generator in logarithmic shape: head wedge dlog(a_2) ^ ... ^ dlog(a_n).

    The head is the degree-1 part b^k s^(p^t) dlog s (b_j s dlog s at
    level 0) and the tail is logarithmic, so every instance factors through
    a log-fixed form of degree n-1 — the shape invariant asserted by
    ``check_shape``.
    """

    __slots__ = ("pairs", "s", "tail", "level", "head", "value", "trivial")

    def check_shape(self) -> bool:
        tail_form = dlog_wedge(self.head.field, self.tail)
        return _is_log_tail(self.tail, tail_form) and self.factors_through(tail_form)

    def factors_through(self, tail_form: DiffForm) -> bool:
        """The value is head ^ tail_form."""
        return self.value == wedge(self.head, tail_form)


def _is_log_tail(tail: tuple[RatFunc, ...], tail_form: DiffForm) -> bool:
    """dlog a_2 ^ ... ^ dlog a_n is log-fixed (nu_member); the empty tail is 1."""
    return not tail or nu_member(tail_form)


def log_kernel_generators(
    field: FunctionField,
    pairs: Sequence[tuple[RatFunc, int]],
    n: int,
    s_list: Sequence[RatFunc],
    tails: Sequence[Sequence[RatFunc]],
) -> list[LogGenerator]:
    """Logarithmic generator system for degree n >= 1.

    For each s and each tail (a_2, ..., a_n) emits b^k s^(p^t) dlog s ^ dlog a_i
    at every level (t, k), which is b_j s dlog s ^ dlog a_i at level 0;
    s = 1 gives the zero instance, which is emitted flagged trivial.
    """
    if n < 1:
        return []
    pairs = tuple(pairs)
    bs = [b for b, _ in pairs]
    levels = generator_levels(pairs, field.p)
    out = []
    tail_forms: dict = {}
    for s in s_list:
        if s.is_zero():
            raise BadExponent("s must be nonzero")
        ds = d(DiffForm.scalar(field, s))
        for tail in tails:
            tail = tuple(tail)
            if len(tail) != n - 1:
                raise BadExponent(f"tail must have {n - 1} entries")
            tail_form = tail_forms.get(tail)
            if tail_form is None:
                tail_form = tail_forms[tail] = dlog_wedge(field, tail)
                # each value is made as head ^ tail_form, so it factors
                # through the tail; the tail's half of check_shape is all
                # that is left to check, once per distinct tail
                if not _is_log_tail(tail, tail_form):
                    raise CertificateFailed("log generator lost its factored shape")
            for t, k in levels:
                head = ds.scale(monomial(field, bs, k) * s ** (field.p**t - 1))
                value = wedge(head, tail_form)
                out.append(
                    LogGenerator(pairs, s, tail, (t, k), head, value, value.is_zero())
                )
    return out


def log_vanish_certificate(
    g: LogGenerator,
    ext: ExtensionSpec,
    oracle_bounds: Optional[SearchBounds] = None,
) -> Certificate:
    """Verified witness that a logarithmic generator restricts trivially.

    Tries the generic Cartier-iteration witness first, then the bounded
    oracle if bounds are supplied.  Both return only certificates that
    verified against value_e and zero, so none is checked again here.  A
    failure names the bounds searched, or says that none were given.
    """
    value_e = restrict(g.value, ext)
    if value_e.is_zero():
        return Certificate.trivial(ext.target, g.value.degree)
    cert = congruence_witness(value_e)
    if cert is None and oracle_bounds is not None:
        cert = solve_wp_plus_d(value_e, oracle_bounds)
    if cert is None:
        searched = "no oracle bounds were given"
        if oracle_bounds is not None:
            dens = ", ".join(map(repr, oracle_bounds.denominators)) or "1"
            searched = (f"oracle searched numerator degree <= {oracle_bounds.max_degree}, "
                        f"denominators {dens}")
        raise CertificateFailed(f"no vanishing witness found for log generator ({searched})")
    return cert


# -- rebasing moves ---------------------------------------------------------------


def _linear_instances(
    pairs: tuple[tuple[RatFunc, int], ...], n: int, parts
) -> list[GeneratorInstance]:
    """Level-0 instances b_i d(w) for the parts (i, w) with a nonzero value."""
    out = []
    for i, w in parts:
        g = make_instance(GeneratorSpec(pairs, n, (0, unit_vector(len(pairs), i))), w)
        if not g.value.is_zero():
            out.append(g)
    return out


def _reduction_instances(
    pairs: tuple[tuple[RatFunc, int], ...], n: int, red: ReductionResult
) -> list[GeneratorInstance]:
    p = pairs[0][0].field.p
    out = [
        make_instance(GeneratorSpec(pairs, n, (j, tuple(ki % p**j for ki in red.ks))), w)
        for j, w in sorted(red.levels.items())
        if not w.is_zero()
    ]
    return out + _linear_instances(pairs, n, red.linear_parts)


def rebase_generator(
    g: GeneratorInstance, move: tuple
) -> tuple[list[GeneratorInstance], Certificate]:
    """Rewrite an instance as a certified sum of rebased-system generators.

    Moves: ("permute", sigma), ("promote", i) replacing (b_i, m_i) by
    (b_i^p, m_i + 1), and ("demote", i) replacing (b_i, m_i) by
    (pth_root(b_i), m_i - 1).  The returned certificate witnesses
    g.value congruent to the sum of the returned instance values.
    """
    kind_move = move[0]
    spec = g.spec
    field = spec.field
    p = field.p
    n = spec.n
    t, k = spec.level
    zero_cert = Certificate.trivial(field, n)
    if kind_move == "permute":
        sigma = tuple(move[1])
        if sorted(sigma) != list(range(len(spec.pairs))):
            raise BadExponent("not a permutation")
        new_pairs = tuple(spec.pairs[s] for s in sigma)
        rebased = GeneratorSpec(new_pairs, n, (t, tuple(k[s] for s in sigma)))
        return [GeneratorInstance(rebased, g.inst, g.value)], zero_cert
    if kind_move == "promote":
        i = move[1]
        b, m = spec.pairs[i]
        new_pairs = _with(spec.pairs, i, (b**p, m + 1))
        if k[i] % p == 0:
            rebased = GeneratorSpec(new_pairs, n, (t, _with(k, i, k[i] // p)))
            return [GeneratorInstance(rebased, g.inst, g.value)], zero_cert
        # p does not divide k_i (k_i = 1 for b_i d(z)): raise the whole
        # instance one power level
        rhs, cert = power_certificate(g.value, 1)
        new_k = _with([p * ki for ki in k], i, k[i])
        rebased = GeneratorSpec(new_pairs, n, (t + 1, new_k))
        return [GeneratorInstance(rebased, g.inst, rhs)], -cert
    if kind_move == "demote":
        i = move[1]
        b, m = spec.pairs[i]
        if m < 2:
            raise BadExponent("cannot demote below exponent 1")
        c = pth_root(b)
        if c is None:
            raise BadExponent("demotion needs b to be a p-th power")
        new_pairs = _with(spec.pairs, i, (c, m - 1))
        new_e = max(ml for _, ml in new_pairs)
        bs_new = [bl for bl, _ in new_pairs]
        k_new = list(_with(k, i, p * k[i]))
        total_cert = zero_cert
        # drop power levels no longer admitted by the shrunken exponent
        while t > new_e - 1:
            if any(ki % p for ki in k_new):
                raise CertificateFailed(
                    "level drop impossible: exponents not divisible by p"
                )
            k_new = [ki // p for ki in k_new]
            _, cert = power_certificate(pattern_value(bs_new, t - 1, k_new, g.inst), 1)
            total_cert = total_cert + cert
            t -= 1
        if t == 0:
            # a plain monomial times an exact form splits into linear parts
            # (b_i d(z) = c^p d(z) = d(c^p z) leaves no part at all)
            parts, eta = monomial_split_parts(bs_new, k_new, g.inst)
            total_cert = total_cert + Certificate(
                u=DiffForm.zero(field, n), eta=eta, field=field
            )
            return _linear_instances(new_pairs, n, enumerate(parts)), total_cert
        red = exponent_reduction(bs_new, k_new, t, g.inst)
        total_cert = total_cert + red.certificate
        return _reduction_instances(new_pairs, n, red), total_cert
    raise ValueError(f"unknown move {kind_move!r}")


def pattern_lowering_certificate(
    g: GeneratorInstance,
) -> tuple[GeneratorInstance, Certificate]:
    """For a power pattern with all exponents divisible by p, the instance is
    certifiably equal (as a class) to the level-(t-1) pattern with k/p.
    """
    spec = g.spec
    t, k = spec.level
    if t < 2:
        raise BadExponent("only power patterns of level t >= 2 can be lowered")
    p = spec.field.p
    if any(ki % p for ki in k):
        raise BadExponent("lowering needs all exponents divisible by p")
    lower_level = (t - 1, tuple(ki // p for ki in k))
    lower = make_instance(GeneratorSpec(spec.pairs, spec.n, lower_level), g.inst)
    raised, cert = power_certificate(lower.value, 1)
    if raised != g.value:
        raise CertificateFailed("lowered pattern does not raise back to the input")
    return lower, cert

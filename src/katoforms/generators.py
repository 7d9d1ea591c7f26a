"""Generator systems for the restriction kernel on classes of forms.

For a purely inseparable extension built from data (b_1, m_1), ..., (b_r, m_r)
the kernel of the restriction on classes modulo wp + d is additively spanned
by two families:

* linear:  b_j d(z)                        for z of one degree lower;
* power:   b_1^k(t,1) ... b_r^k(t,r) (d v)^[p^t]
           for 1 <= t <= e-1,  0 <= k(t,i) < p^t,
           max(1, p^(t - m_i + 1)) dividing k(t,i),

with e = max m_i.  This module enumerates instances of both families over a
user-supplied list of instantiating forms, constructs the explicit witness
that every instance restricts to a congruence-trivial form over the
extension (the implementable inclusion), produces the logarithmic-shaped
variant of the same system, and rewrites instances under the two rebasing
moves (permutation, and trading (b, m) against (b^p, m+1)) with certified
output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .certificates import (
    Certificate,
    ReductionResult,
    exponent_reduction,
    monomial,
    monomial_split_parts,
    power_certificate,
    verify_certificate,
)
from .errors import BadExponent, CertificateFailed, UnsupportedExtension
from .extensions import ExtensionSpec, restrict
from .fields import FunctionField, RatFunc, pth_root
from .forms import DiffForm, d, dlog, nu_member, sp_iter, wedge
from .certificates import congruence_witness
from .oracle import SearchBounds, solve_wp_plus_d

KIND_LINEAR = "linear"
KIND_POWER = "power"


def pattern_divisor(p: int, t: int, m: int) -> int:
    return max(1, p ** (t - m + 1))


@dataclass(frozen=True)
class GeneratorSpec:
    """One admissible pattern of the generator system.

    pairs is the full system data ((b_i, m_i), ...); linear patterns carry
    the slot index j, power patterns carry the level t and exponent vector k
    subject to the range and divisibility constraints.
    """

    kind: str
    pairs: tuple[tuple[RatFunc, int], ...]
    n: int
    j: Optional[int] = None
    t: Optional[int] = None
    k: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("empty generator system")
        if any(b.is_zero() for b, _ in self.pairs):
            raise ValueError("generator elements must be nonzero")
        if any(m < 1 for _, m in self.pairs):
            raise ValueError("all exponents m_i must be >= 1")
        if self.n < 1:
            raise ValueError("generators exist in degree >= 1 only")
        p = self.pairs[0][0].field.p
        if self.kind == KIND_LINEAR:
            if self.j is None or not 0 <= self.j < len(self.pairs):
                raise ValueError("linear pattern needs a valid slot index")
        elif self.kind == KIND_POWER:
            if self.t is None or self.k is None:
                raise ValueError("power pattern needs t and k")
            e = max(m for _, m in self.pairs)
            if not 1 <= self.t <= e - 1:
                raise BadExponent(f"level t={self.t} outside 1..{e - 1}")
            if len(self.k) != len(self.pairs):
                raise BadExponent("exponent vector length mismatch")
            for ki, (_, mi) in zip(self.k, self.pairs):
                if not 0 <= ki < p**self.t:
                    raise BadExponent(f"exponent {ki} outside [0, p^t)")
                if ki % pattern_divisor(p, self.t, mi):
                    raise BadExponent(
                        f"exponent {ki} violates divisibility for m={mi}, t={self.t}"
                    )
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def field(self) -> FunctionField:
        return self.pairs[0][0].field


@dataclass(frozen=True)
class GeneratorInstance:
    """A pattern instantiated with a concrete form of one degree lower."""

    spec: GeneratorSpec
    inst: DiffForm
    value: DiffForm
    trivial: bool = False


def make_instance(spec: GeneratorSpec, inst: DiffForm) -> GeneratorInstance:
    """Instance value: b_j d(z) for linear, (prod b^k)(d v)^[p^t] for power."""
    bs = [b for b, _ in spec.pairs]
    if inst.degree != spec.n - 1:
        raise BadExponent(f"instantiating form must have degree {spec.n - 1}")
    if spec.kind == KIND_LINEAR:
        value = d(inst).scale(bs[spec.j])
        trivial = False
    else:
        value = sp_iter(d(inst), spec.t).scale(monomial(spec.field, bs, spec.k))
        trivial = all(k == 0 for k in spec.k)
    return GeneratorInstance(spec=spec, inst=inst, value=value, trivial=trivial)


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
    out = []
    for inst in insts:
        for j in range(len(pairs)):
            spec = GeneratorSpec(KIND_LINEAR, pairs, n, j=j)
            out.append(make_instance(spec, inst))
        for t, k in power_patterns(pairs, field.p):
            spec = GeneratorSpec(KIND_POWER, pairs, n, t=t, k=k)
            out.append(make_instance(spec, inst))
    return out


# -- vanishing over the extension ---------------------------------------------


def adapted_slots(
    pairs: Sequence[tuple[RatFunc, int]], ext: ExtensionSpec, needs: str
) -> list[int]:
    """Source-variable index for each pair; the extension must be adapted to them.

    ``needs`` names the construction in the error raised for an extension
    without adapted data.
    """
    if ext.adapted is None:
        raise UnsupportedExtension(f"{needs} need an adapted extension")
    source = ext.source
    slots = []
    for b, m in pairs:
        idx = next((i for i in range(source.nvars) if b == source.var(i)), None)
        if idx is None or ext.adapted.exponent_of(idx) != m:
            raise UnsupportedExtension(
                "generator data is not among the distinguished variables"
            )
        slots.append(idx)
    return slots


def vanish_certificate(g: GeneratorInstance, ext: ExtensionSpec) -> Certificate:
    """Explicit witness that the instance restricts to a trivial class over E.

    For a linear instance b_j d(z) the restriction is a p-th power times an
    exact form and the witness is purely exact.  For a power instance every
    exponent p^(m_i) k(t,i) is divisible by p^(t+1), so the restriction is
    the t-fold semilinear power of a p-th-power multiple of an exact form:
    the power telescopes into the wp slot and the rest into the exact slot.
    """
    slots = adapted_slots(g.spec.pairs, ext, "vanishing witnesses")
    target = ext.target
    p = target.p
    value_e = restrict(g.value, ext)
    if value_e.is_zero():
        cert = Certificate.trivial(target, g.value.degree)
        return cert
    inst_e = restrict(g.inst, ext)
    if g.spec.kind == KIND_LINEAR:
        image = ext.apply(g.spec.pairs[g.spec.j][0])
        eta = inst_e.scale(image)
        cert = Certificate(
            u=DiffForm.zero(target, g.value.degree), eta=eta, field=target
        )
    else:
        t = g.spec.t
        root_mono = target.one()
        for slot, ki, (_, mi) in zip(slots, g.spec.k, g.spec.pairs):
            c_i = (p**mi * ki) // (p**t)
            root_mono = root_mono * target.var(slot) ** c_i
        z = d(inst_e).scale(root_mono)
        u = DiffForm.zero(target, g.value.degree)
        cur = z
        for _ in range(t):
            u = u + cur
            cur = sp_iter(cur, 1)
        eta = inst_e.scale(root_mono)
        cert = Certificate(u=u, eta=eta, field=target)
    if not verify_certificate(value_e, DiffForm.zero(target, g.value.degree), cert):
        raise CertificateFailed("vanishing witness failed to verify")
    return cert


# -- logarithmic-shaped generators ---------------------------------------------


@dataclass(frozen=True)
class LogGenerator:
    """Generator in logarithmic shape: head wedge dlog(a_2) ^ ... ^ dlog(a_n).

    The head is the degree-1 part (b_j s dlog s, or b^k s^(p^t) dlog s) and
    the tail is logarithmic, so every instance factors through a log-fixed
    form of degree n-1 — the shape invariant asserted by ``check_shape``.
    """

    kind: str
    pairs: tuple[tuple[RatFunc, int], ...]
    s: RatFunc
    tail: tuple[RatFunc, ...]
    j: Optional[int]
    t: Optional[int]
    k: Optional[tuple[int, ...]]
    head: DiffForm
    value: DiffForm
    trivial: bool

    def check_shape(self) -> bool:
        field = self.head.field
        tail_form = DiffForm.scalar(field, field.one())
        for a in self.tail:
            tail_form = wedge(tail_form, dlog(a))
        if self.tail and not nu_member(tail_form):
            return False
        return self.value == wedge(self.head, tail_form)


def log_kernel_generators(
    field: FunctionField,
    pairs: Sequence[tuple[RatFunc, int]],
    n: int,
    s_list: Sequence[RatFunc],
    tails: Sequence[Sequence[RatFunc]],
) -> list[LogGenerator]:
    """Logarithmic generator system for degree n >= 1.

    For each s and each tail (a_2, ..., a_n) emits b_j s dlog s ^ dlog a_i
    and b^k s^(p^t) dlog s ^ dlog a_i; s = 1 gives the zero instance, which
    is emitted flagged trivial.
    """
    if n < 1:
        return []
    pairs = tuple(pairs)
    bs = [b for b, _ in pairs]
    out = []
    for s in s_list:
        if s.is_zero():
            raise BadExponent("s must be nonzero")
        ds = d(DiffForm.scalar(field, s))
        for tail in tails:
            tail = tuple(tail)
            if len(tail) != n - 1:
                raise BadExponent(f"tail must have {n - 1} entries")
            tail_form = DiffForm.scalar(field, field.one())
            for a in tail:
                tail_form = wedge(tail_form, dlog(a))
            for j in range(len(pairs)):
                head = ds.scale(bs[j])
                value = wedge(head, tail_form)
                out.append(
                    LogGenerator(
                        KIND_LINEAR, pairs, s, tail, j, None, None, head, value,
                        trivial=value.is_zero(),
                    )
                )
            for t, k in power_patterns(pairs, field.p):
                scale = monomial(field, bs, k) * s ** (field.p**t - 1)
                head = ds.scale(scale)
                value = wedge(head, tail_form)
                out.append(
                    LogGenerator(
                        KIND_POWER, pairs, s, tail, None, t, k, head, value,
                        trivial=value.is_zero(),
                    )
                )
    for g in out:
        if not g.check_shape():
            raise CertificateFailed("log generator lost its factored shape")
    return out


def log_vanish_certificate(
    g: LogGenerator,
    ext: ExtensionSpec,
    oracle_bounds: Optional[SearchBounds] = None,
) -> Certificate:
    """Verified witness that a logarithmic generator restricts trivially.

    Tries the generic Cartier-iteration witness first, then the bounded
    oracle if bounds are supplied.
    """
    value_e = restrict(g.value, ext)
    zero = DiffForm.zero(ext.target, g.value.degree)
    if value_e.is_zero():
        return Certificate.trivial(ext.target, g.value.degree)
    cert = congruence_witness(value_e)
    if cert is None and oracle_bounds is not None:
        cert = solve_wp_plus_d(value_e, oracle_bounds)
    if cert is None or not verify_certificate(value_e, zero, cert):
        raise CertificateFailed("no vanishing witness found for log generator")
    return cert


# -- rebasing moves ---------------------------------------------------------------


def _instances_from_reduction(
    pairs: tuple[tuple[RatFunc, int], ...], n: int, red: ReductionResult
) -> list[GeneratorInstance]:
    field = pairs[0][0].field
    out = []
    for jlev in sorted(red.levels):
        w = red.levels[jlev]
        if w.is_zero():
            continue
        pj = field.p**jlev
        k = tuple(ki % pj for ki in red.ks)
        spec = GeneratorSpec(KIND_POWER, pairs, n, t=jlev, k=k)
        out.append(GeneratorInstance(spec, w, red.level_value(jlev),
                                     trivial=all(x == 0 for x in k)))
    for i, w in red.linear_parts:
        value = d(w).scale(red.bs[i])
        if value.is_zero():
            continue
        spec = GeneratorSpec(KIND_LINEAR, pairs, n, j=i)
        out.append(GeneratorInstance(spec, w, value))
    return out


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
    n = spec.n
    zero_cert = Certificate.trivial(field, n)
    if kind_move == "permute":
        sigma = tuple(move[1])
        if sorted(sigma) != list(range(len(spec.pairs))):
            raise BadExponent("not a permutation")
        new_pairs = tuple(spec.pairs[s] for s in sigma)
        if spec.kind == KIND_LINEAR:
            new_spec = GeneratorSpec(
                KIND_LINEAR, new_pairs, n, j=sigma.index(spec.j)
            )
        else:
            new_spec = GeneratorSpec(
                KIND_POWER, new_pairs, n, t=spec.t,
                k=tuple(spec.k[s] for s in sigma),
            )
        return [GeneratorInstance(new_spec, g.inst, g.value, g.trivial)], zero_cert
    if kind_move == "promote":
        i = move[1]
        b, m = spec.pairs[i]
        new_pairs = tuple(
            (bl ** field.p, ml + 1) if l == i else (bl, ml)
            for l, (bl, ml) in enumerate(spec.pairs)
        )
        if spec.kind == KIND_LINEAR:
            if spec.j != i:
                new_spec = GeneratorSpec(KIND_LINEAR, new_pairs, n, j=spec.j)
                return [GeneratorInstance(new_spec, g.inst, g.value)], zero_cert
            # b d(z) is congruent to b^p (dz)^[p], one power level up
            rhs, cert = power_certificate(g.value, 1)
            k = tuple(1 if l == i else 0 for l in range(len(spec.pairs)))
            new_spec = GeneratorSpec(KIND_POWER, new_pairs, n, t=1, k=k)
            return [GeneratorInstance(new_spec, g.inst, rhs)], -cert
        t, k = spec.t, spec.k
        if k[i] % field.p == 0:
            new_k = tuple(ki // field.p if l == i else ki for l, ki in enumerate(k))
            new_spec = GeneratorSpec(KIND_POWER, new_pairs, n, t=t, k=new_k)
            return [
                GeneratorInstance(new_spec, g.inst, g.value,
                                  trivial=all(x == 0 for x in new_k))
            ], zero_cert
        # p does not divide k_i: raise the whole instance one power level
        rhs, cert = power_certificate(g.value, 1)
        new_k = tuple(
            ki if l == i else field.p * ki for l, ki in enumerate(k)
        )
        new_spec = GeneratorSpec(KIND_POWER, new_pairs, n, t=t + 1, k=new_k)
        return [GeneratorInstance(new_spec, g.inst, rhs)], -cert
    if kind_move == "demote":
        i = move[1]
        b, m = spec.pairs[i]
        if m < 2:
            raise BadExponent("cannot demote below exponent 1")
        c = pth_root(b)
        if c is None:
            raise BadExponent("demotion needs b to be a p-th power")
        new_pairs = tuple(
            (c, m - 1) if l == i else pair for l, pair in enumerate(spec.pairs)
        )
        new_e = max(ml for _, ml in new_pairs)
        if spec.kind == KIND_LINEAR:
            if spec.j != i:
                new_spec = GeneratorSpec(KIND_LINEAR, new_pairs, n, j=spec.j)
                return [GeneratorInstance(new_spec, g.inst, g.value)], zero_cert
            # b d(z) = c^p d(z) = d(c^p z): trivial class, empty sum
            eta = g.inst.scale(b)
            cert = Certificate(u=DiffForm.zero(field, n), eta=eta, field=field)
            return [], cert
        t, k = spec.t, spec.k
        bs_new = [bl for bl, _ in new_pairs]
        k_new = [field.p * ki if l == i else ki for l, ki in enumerate(k)]
        total_cert = zero_cert
        # drop power levels no longer admitted by the shrunken exponent
        while t > new_e - 1:
            if any(ki % field.p for ki in k_new):
                raise CertificateFailed(
                    "level drop impossible: exponents not divisible by p"
                )
            k_new = [ki // field.p for ki in k_new]
            lower = sp_iter(d(g.inst), t - 1).scale(
                monomial(field, bs_new, k_new)
            )
            _, cert = power_certificate(lower, 1)
            total_cert = total_cert + cert
            t -= 1
        if t == 0:
            # down to a plain monomial times an exact form
            pos = [l for l, ki in enumerate(k_new) if ki]
            if not pos:
                eta_cert = Certificate(
                    u=DiffForm.zero(field, n), eta=g.inst, field=field
                )
                return [], total_cert + eta_cert
            parts, eta = monomial_split_parts(
                [bs_new[l] for l in pos], [k_new[l] for l in pos], g.inst
            )
            total_cert = total_cert + Certificate(
                u=DiffForm.zero(field, n), eta=eta, field=field
            )
            out = []
            for l, w in zip(pos, parts):
                value = d(w).scale(bs_new[l])
                if value.is_zero():
                    continue
                spec_l = GeneratorSpec(KIND_LINEAR, new_pairs, n, j=l)
                out.append(GeneratorInstance(spec_l, w, value))
            return out, total_cert
        red = exponent_reduction(bs_new, k_new, t, g.inst)
        total_cert = total_cert + red.certificate
        return _instances_from_reduction(new_pairs, n, red), total_cert
    raise ValueError(f"unknown move {kind_move!r}")


def pattern_lowering_certificate(
    g: GeneratorInstance,
) -> tuple[GeneratorInstance, Certificate]:
    """For a power pattern with all exponents divisible by p, the instance is
    certifiably equal (as a class) to the level-(t-1) pattern with k/p.

    Exponent vectors that are all zero drop to the exact form d(v) itself,
    returned as the trivial level with an empty exponent pattern when t = 1.
    """
    spec = g.spec
    if spec.kind != KIND_POWER:
        raise BadExponent("only power patterns can be lowered")
    p = spec.field.p
    if any(k % p for k in spec.k):
        raise BadExponent("lowering needs all exponents divisible by p")
    if spec.t < 2:
        raise BadExponent("level must be at least 2 to lower")
    new_k = tuple(k // p for k in spec.k)
    bs = [b for b, _ in spec.pairs]
    lower_value = sp_iter(d(g.inst), spec.t - 1).scale(
        monomial(spec.field, bs, new_k)
    )
    raised, cert = power_certificate(lower_value, 1)
    if raised != g.value:
        raise CertificateFailed("lowered pattern does not raise back to the input")
    new_spec = GeneratorSpec(KIND_POWER, spec.pairs, spec.n, t=spec.t - 1, k=new_k)
    lower = GeneratorInstance(new_spec, g.inst, lower_value,
                              trivial=all(x == 0 for x in new_k))
    return lower, cert

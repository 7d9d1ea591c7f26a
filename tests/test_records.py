"""Value records: immutable, compared and hashed on their fields, repr'd as
dataclasses are, and made without ``dataclasses`` or any generated code."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import katoforms
from katoforms import (
    AdaptedData,
    BadExponent,
    BilGenerator,
    Certificate,
    DiffForm,
    ExtensionSpec,
    FunctionField,
    GeneratorInstance,
    GeneratorSpec,
    HyperbolicityChain,
    InsepCert,
    IsometryCert,
    LagrangianCert,
    LogGenerator,
    PfisterSymbol,
    ReductionResult,
    SearchBounds,
    WittGenerator,
    build_adapted,
    d,
    quad_kernel_generator,
)
from katoforms.cli import DEFAULT_SEED, JobSpec
from katoforms.records import Record
from katoforms.witt import QuadForm, BilForm

SRC = str(Path(katoforms.__file__).resolve().parents[1])


def _samples():
    """Keyword arguments of one valid value of every record.  Each call makes
    fresh fields and elements, so two calls give equal values that share no
    objects."""
    f = FunctionField.make(2, ["x", "y"])
    x, y = f.var(0), f.var(1)
    one, zero = f.one(), f.zero()
    dx = d(DiffForm.scalar(f, x))
    cert = Certificate(DiffForm.zero(f, 1), DiffForm.zero(f, 0), f)
    spec = GeneratorSpec(((x, 2),), 1, (1, (0,)))
    plane = QuadForm.hyperbolic_plane(f)
    ext = build_adapted(f, AdaptedData(((0, 1),)))
    return {
        SearchBounds: dict(max_degree=3, denominators=(x.num, y.num)),
        Certificate: dict(u=DiffForm.zero(f, 1), eta=DiffForm.scalar(f, x), field=f),
        ReductionResult: dict(
            bs=(x,), ks=(1,), t=0, source_form=DiffForm.scalar(f, y),
            levels={0: DiffForm.scalar(f, y)}, linear_parts=((0, dx),), certificate=cert,
        ),
        JobSpec: dict(command="classify", options={"form": "x dx"}, seed=7),
        AdaptedData: dict(pairs=((0, 2), (1, 1))),
        InsepCert: dict(var="x", n=1, g=x),
        ExtensionSpec: dict(
            source=ext.source, target=ext.target, images=ext.images,
            insep_certs=ext.insep_certs, exponent=ext.exponent, adapted=ext.adapted,
        ),
        GeneratorSpec: dict(pairs=((x, 2), (y, 1)), n=1, level=(0, (1, 0))),
        GeneratorInstance: dict(spec=spec, inst=DiffForm.scalar(f, y), value=dx),
        LogGenerator: dict(
            pairs=((x, 2),), s=y, tail=(x,), level=(0, (1,)), head=dx, value=dx, trivial=False,
        ),
        PfisterSymbol: dict(slots=(x, y), tail=x + y),
        IsometryCert: dict(matrix=((one, zero), (zero, one))),
        LagrangianCert: dict(basis=((one, zero),)),
        WittGenerator: dict(
            pairs=((x, 2),), s=y, level=(1, (1,)), tail=y * y * x, form=plane,
        ),
        HyperbolicityChain: dict(
            restricted=plane, steps=((plane, plane, IsometryCert(((one, zero), (zero, one)))),),
            final_form=plane, lagrangian=LagrangianCert(((one, zero),)),
        ),
        BilGenerator: dict(x=x, form=BilForm.diagonal(f, [one, x]), vector=(one, one)),
    }


RECORDS = list(_samples())


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_record_is_covered():
    assert set(_all_subclasses(Record)) == set(RECORDS)


def test_importing_the_cli_loads_no_dataclasses():
    code = (
        "import sys; before = set(sys.modules); import katoforms.cli; "
        "print(sorted({'dataclasses', 'katoforms.cli'} & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": SRC}, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "['katoforms.cli']"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    kwargs, again = _samples()[cls], _samples()[cls]
    a, b = cls(**kwargs), cls(*again.values())
    assert a is not b and a == b and not a != b
    assert a != object() and a != kwargs
    try:
        ha = hash(a)
    except TypeError:
        # a field holds an unhashable value (a dict or a form matrix), as
        # with a frozen dataclass
        with pytest.raises(TypeError):
            hash(b)
    else:
        # the hash of a frozen dataclass: that of the tuple of compared fields
        compared = [n for n in cls.__slots__ if (cls, n) != (ExtensionSpec, "adapted")]
        assert ha == hash(b) == hash(tuple(getattr(a, n) for n in compared))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    r = cls(**_samples()[cls])
    fields = ", ".join(f"{n}={getattr(r, n)!r}" for n in cls.__slots__)
    assert repr(r) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    r = cls(**_samples()[cls])
    for name in cls.__slots__ + ("_key", "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert not hasattr(r, "__dict__")


def _required(cls):
    """The fields that a constructor call must give, in slot order."""
    if cls.__init__ is Record.__init__:
        return [n for n in cls.__slots__ if n not in cls._defaults]
    params = inspect.signature(cls).parameters
    return [n for n in cls.__slots__ if params[n].default is inspect.Parameter.empty]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_refuses_bad_arguments(cls):
    kwargs = _samples()[cls]
    last, first = _required(cls)[-1], cls.__slots__[0]
    with pytest.raises(TypeError, match=f"'{last}'"):
        cls(**{n: v for n, v in kwargs.items() if n != last})
    with pytest.raises(TypeError, match="'extra'"):
        cls(**kwargs, extra=None)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError, match=f"'{first}'"):
        cls(kwargs[first], **kwargs)


def test_left_out_fields_take_their_defaults():
    assert JobSpec("selftest", {}).seed == DEFAULT_SEED
    assert JobSpec(command="selftest", options={}).seed == DEFAULT_SEED
    kwargs = _samples()[ExtensionSpec]
    del kwargs["adapted"]
    assert ExtensionSpec(**kwargs).adapted is None
    assert ExtensionSpec(*kwargs.values()).adapted is None


def test_only_the_records_module_sets_fields():
    package = Path(katoforms.__file__).parent
    users = [p.name for p in package.glob("*.py") if "set_field" in p.read_text(encoding="utf-8")]
    assert users == ["records.py"]


def test_extension_equality_ignores_adapted():
    kwargs = _samples()[ExtensionSpec]
    adapted = ExtensionSpec(**kwargs)
    plain = ExtensionSpec(**{**kwargs, "adapted": None})
    assert adapted.adapted is not None and plain.adapted is None
    assert adapted == plain and hash(adapted) == hash(plain)
    assert "adapted=AdaptedData(pairs=((0, 1),))" in repr(adapted)


def _generator_cases():
    f = FunctionField.make(2, ["x", "y"])
    x, y = f.var(0), f.var(1)
    return [
        ((), 1, (0, ()), ValueError, "empty generator system"),
        (((f.zero(), 1),), 1, (0, (1,)), ValueError, "generator elements must be nonzero"),
        (((x, 0),), 1, (0, (1,)), ValueError, "all exponents m_i must be >= 1"),
        (((x, 1),), 0, (0, (1,)), ValueError, "generators exist in degree >= 1 only"),
        (((x, 1),), 1, (0, (1, 0)), BadExponent, "exponent vector length mismatch"),
        (((x, 1), (y, 1)), 1, (0, (0, 0)), BadExponent,
         "level 0 needs a unit exponent vector, got (0, 0)"),
        (((x, 2),), 1, (2, (0,)), BadExponent, "level t=2 outside 1..1"),
        (((x, 2),), 1, (1, (2,)), BadExponent, "exponent 2 outside [0, p^t)"),
        (((x, 2), (y, 1)), 1, (1, (0, 1)), BadExponent,
         "exponent 1 violates divisibility for m=1, t=1"),
    ]


@pytest.mark.parametrize("pairs, n, level, error, message", _generator_cases(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_generator_spec_checks_keep_their_messages(pairs, n, level, error, message):
    with pytest.raises(error) as caught:
        GeneratorSpec(pairs, n, level)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FunctionField(0, ("x",)), "modulus 0 is not prime"),
        (lambda: FunctionField(1, ("x",)), "modulus 1 is not prime"),
        (lambda: FunctionField(4, ("x",)), "modulus 4 is not prime"),
        (lambda: FunctionField(2**64 + 13, ("x",)), f"modulus {2**64 + 13} is not below 2^64"),
        (lambda: FunctionField(2, ("x", "y", "x")), "duplicate variable names"),
        (lambda: SearchBounds(True), "degree bound True is not an integer"),
        (lambda: SearchBounds(2.0), "degree bound 2.0 is not an integer"),
        (lambda: SearchBounds(-1), "degree bound -1 is negative"),
        (lambda: AdaptedData(((0, 1), (0, 2))), "duplicate distinguished indices"),
        (lambda: AdaptedData(((0, 0),)), "exponents must be >= 1"),
        (lambda: PfisterSymbol((FunctionField.make(2, ["x"]).zero(),)),
         "Pfister slots must be nonzero"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_value_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == message


def test_generator_spec_normalizes_its_level():
    f = FunctionField.make(2, ["x"])
    spec = GeneratorSpec(((f.var(0), 2),), 1, [1, [0]])
    assert spec.level == (1, (0,)) and spec == GeneratorSpec(((f.var(0), 2),), 1, (1, (0,)))
    assert quad_kernel_generator(((f.var(0), 2),), f.var(0), (1, [1])).level == (1, (1,))

import random

import pytest

from katoforms import FunctionField, InsepCert, build_embedding


@pytest.fixture
def f2x():
    return FunctionField.make(2, ["x"])


@pytest.fixture
def f2xy():
    return FunctionField.make(2, ["x", "y"])


@pytest.fixture
def f2xyz():
    return FunctionField.make(2, ["x", "y", "z"])


@pytest.fixture
def f3xy():
    return FunctionField.make(3, ["x", "y"])


@pytest.fixture
def rng():
    return random.Random(912831)


@pytest.fixture(params=[1, 2, 3])
def shifted_ext(request):
    """F2(x,y,w) into F2(z,y,w) by x -> z^(2^m) + yw, for m = 1, 2, 3: a
    certified extension that is not adapted, with its datum (x + yw, m),
    whose 2^m-th root over E is z."""
    m = request.param
    source = FunctionField.make(2, ["x", "y", "w"])
    target = FunctionField.make(2, ["z", "y", "w"])
    x, y, w = (source.var(i) for i in range(3))
    z, ye, we = (target.var(i) for i in range(3))
    certs = (InsepCert("z", m, x + y * w), InsepCert("y", 0, y), InsepCert("w", 0, w))
    ext = build_embedding(source, target, (z ** (2**m) + ye * we, ye, we), certs)
    return ext, (x + y * w, m)

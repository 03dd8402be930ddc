import numpy as np
import pytest

from mdsrepair.gf import build_tower
from mdsrepair.nrc import build, validate_params


@pytest.fixture(scope="session")
def tower3():
    return build_tower(3, 1, 2)


@pytest.fixture(scope="session")
def tower5():
    return build_tower(5, 1, 2)


@pytest.fixture(scope="session")
def bundle3(tower3):
    return build(validate_params(tower3, 2, 9))


@pytest.fixture(scope="session")
def bundle5(tower5):
    return build(validate_params(tower5, 3, 24))


@pytest.fixture
def watch_calls(monkeypatch):
    """watch(module, name) -> the shapes of the arrays later passed to it.

    Wraps a ``(field, array)`` function of a module for the rest of the
    test and records the shape of every array it is called with.
    """
    def watch(module, name):
        shapes = []
        real = getattr(module, name)

        def counted(field, a):
            shapes.append(np.shape(a))
            return real(field, a)

        monkeypatch.setattr(module, name, counted)
        return shapes
    return watch

import tracemalloc

import numpy as np
import pytest

from kdrecon.core import QuantumState
from kdrecon.errors import SizeCap


@pytest.fixture
def ket0():
    return QuantumState([1, 0])


@pytest.fixture
def plus_x():
    return QuantumState.normalized([1, 1])


@pytest.fixture
def plus_y():
    return QuantumState.normalized([1, 1j])


def maxabs(a):
    return float(np.max(np.abs(np.asarray(a))))


@pytest.fixture
def size_cap_peak():
    """Peak bytes traced while ``call()`` is refused with SizeCap: a refusal
    made before anything is built stays near 1 kB (message and traceback)."""
    def peak(call):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCap, match="cap"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak

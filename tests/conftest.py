"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def scatter_generators(gens) -> np.ndarray:
    """The generators as a dense (2m, 2^m, 2^m) stack: phases[j] scattered to
    the entries (r, r ^ masks[j]), zeros elsewhere."""
    dense = np.zeros((len(gens.masks), gens.dim, gens.dim), dtype=np.complex128)
    rows = np.arange(gens.dim)
    dense[np.arange(len(gens.masks))[:, None], rows, rows ^ gens.masks[:, None]] = gens.phases
    return dense


@pytest.fixture
def dense_generators():
    return scatter_generators

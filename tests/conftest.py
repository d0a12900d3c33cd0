import numpy as np
import pytest

import ctxapprox as ca


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_tp():
    return ca.random_sparse_params(3, d_x=4, d_y=2)


@pytest.fixture
def unit_interval_grid():
    return ca.Grid((0.0,), (1.0,), (201,))


def random_fnn(rng, k, d_in, d_y, activation, scale=1.0):
    return ca.FnnParams(rng.uniform(-scale, scale, (d_y, k)),
                        rng.uniform(-scale, scale, (k, d_in)),
                        rng.uniform(-scale, scale, k), activation)


def query_readout(tp, asm, activation):
    """The readout of an ``InputAssembly`` at its own query; (d_y,)."""
    return ca.readout_batch(tp, asm, asm.query[None, :], activation)[0]

import math

import pytest

from cavity_grover import CavityParams

# Reference operating point: atom-1 coupling of 2*pi*6.125 kHz (an eighth of
# the 2*pi*49 kHz antinode coupling).
OMEGA1C = 2.0 * math.pi * 6.125e3


@pytest.fixture(scope="session")
def omega1c() -> float:
    return OMEGA1C


@pytest.fixture(scope="session")
def params_lossless() -> CavityParams:
    return CavityParams.designed(OMEGA1C, 0.0)


@pytest.fixture(scope="session")
def params_weak_decay() -> CavityParams:
    return CavityParams.designed(OMEGA1C, OMEGA1C / 50.0)


@pytest.fixture(scope="session")
def params_strong_decay() -> CavityParams:
    return CavityParams.designed(OMEGA1C, OMEGA1C / 10.0)


@pytest.fixture(scope="session")
def weak_decay(params_weak_decay) -> float:
    """kappa/omega1 of ``params_weak_decay``: the decay rate the closed forms take."""
    return params_weak_decay.kappa / params_weak_decay.omega[0]


@pytest.fixture(scope="session")
def strong_decay(params_strong_decay) -> float:
    """kappa/omega1 of ``params_strong_decay``: the decay rate the closed forms take."""
    return params_strong_decay.kappa / params_strong_decay.omega[0]

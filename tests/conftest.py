import numpy as np
import pytest

from qarrival import GaussianSpec, GridSpec, PhysConsts, checks, make_gaussian, make_reflected_state


@pytest.fixture(scope="session")
def consts():
    return PhysConsts()


@pytest.fixture(scope="session")
def grid():
    return GridSpec(1024, 40.0)


@pytest.fixture(scope="session")
def fast_spec(consts):
    # fast-packet preset: deep in the large-momentum regime at its arrival time
    return GaussianSpec(p0=10.0, x0=-5.0, sigma_p=1.0, consts=consts)


@pytest.fixture(scope="session")
def fast_packet(fast_spec, grid):
    return make_gaussian(fast_spec, grid)


@pytest.fixture(scope="session")
def verify_report(grid, fast_spec):
    """The invariant report of `qarrival verify` at its default configuration
    (grid 1024/40, fast packet, L = 0.2), by check name."""
    return {check["name"]: check for check in checks.run_checks(grid, fast_spec, 0.2)}


@pytest.fixture(scope="session")
def reflected_grid():
    # finer dp than the default so the conjugate position extent holds the
    # wide, far-from-origin base packet of the reflected preset
    return GridSpec(1792, 40.0)


@pytest.fixture(scope="session")
def reflected_spec(consts):
    # low-momentum preset: sigma_x = 4, centered 5 sigma_x left of the origin
    return GaussianSpec(p0=0.3, x0=-20.0, sigma_p=0.125, consts=consts)


@pytest.fixture(scope="session")
def reflected_packet(reflected_spec, reflected_grid):
    return make_reflected_state(reflected_spec, reflected_grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)

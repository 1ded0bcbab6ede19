import dataclasses

import pytest

from mblaser.ensemble import sample_ensemble
from mblaser.verify import DESK_KAPPA, desk_params  # noqa: F401  (re-exported to the tests)


@pytest.fixture(scope="session")
def small_ensemble():
    """Desk-rescaled ruby couplings, N = 20."""
    return sample_ensemble(desk_params(20), "H1", seed=11,
                           rescale_alpha_to_s=1e-5)


@pytest.fixture(scope="session")
def tiny_ensemble():
    """N = 4, for brute-force cross-checks."""
    return sample_ensemble(desk_params(4), "H1", seed=2,
                           rescale_alpha_to_s=1e-5)


@pytest.fixture(scope="session")
def nopump_ensemble():
    """Zero pumping (gamma_n = 0), N = 20."""
    params = dataclasses.replace(desk_params(20), gamma_scale=0.0)
    return sample_ensemble(params, "H1", seed=11, rescale_alpha_to_s=1e-5)

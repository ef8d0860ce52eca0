import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from pshjb import costs, delay, heat, hjb


@pytest.fixture(scope="session")
def heat_model():
    return heat.build_projected_model(heat.HeatConfig())


@pytest.fixture(scope="session")
def heat_spectral1():
    cfg = heat.HeatConfig(n_modes=64, projection="spectral", spectral_modes=(1,))
    return heat.build_projected_model(cfg)


@pytest.fixture(scope="session")
def heat_spectral12():
    cfg = heat.HeatConfig(n_modes=64, projection="spectral", spectral_modes=(1, 2))
    return heat.build_projected_model(cfg)


def shipped_delay_config():
    return delay.DelayConfig(
        a0=[[-0.3, 0.1], [0.0, -0.2]],
        b0=[[1.0], [0.5]],
        sigma=[[1.0, 0.0], [0.0, 1.0]],
        delay=0.2,
        b1_atoms=[(-0.2, [[0.4], [0.2]])],
    )


def scalar_delay_config(c=0.5, d=0.2):
    return delay.DelayConfig(
        a0=[[0.0]], b0=[[1.0]], sigma=[[1.0]], delay=d, b1_atoms=[(-d, [[c]])]
    )


@pytest.fixture(scope="session")
def delay_model():
    return delay.build_projected_model(shipped_delay_config())


@pytest.fixture(scope="session")
def delay_scalar():
    return delay.build_projected_model(scalar_delay_config())


def shipped_delay_ham():
    return hjb.Hamiltonian(
        [[-1.0], [-0.5], [0.0], [0.5], [1.0]], [0.05, 0.0125, 0.0, 0.0125, 0.05]
    )


def shipped_heat_ham():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return hjb.Hamiltonian(pts, 0.05 * np.sum(pts**2, axis=1))


def nearest_multilinear(axes, values, pts):
    """Independent oracle of scattered interpolation: map_coordinates on
    one field, clamped at the box, points of shape (B, N)."""
    coords = [(pts[:, d] - ax[0]) / (ax[1] - ax[0]) for d, ax in enumerate(axes)]
    return map_coordinates(values, coords, order=1, mode="nearest")


MINI_CFG = dict(
    horizon=1.0, n_time=20, space_points=21, quad_order=5, time_quad_order=6,
    tol=1e-4, max_iter=30,
)


@pytest.fixture(scope="session")
def mini_delay_solution(delay_model):
    """Small-grid delay solve shared by solver and harness tests."""
    ham = shipped_delay_ham()
    phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
    ell0 = costs.constant_ell0(0.1)
    cfg = hjb.SolverConfig(**MINI_CFG)
    sol = hjb.picard_solve(delay_model, ham, phi, ell0, cfg)
    return sol, ham, phi, ell0, cfg


@pytest.fixture(scope="session")
def mini_heat_solution(heat_model):
    """Small-grid heat solve for harness coverage of the m = 2 control path."""
    ham = shipped_heat_ham()
    phi = costs.tanh_cost([0.8, -0.5], 0.0, 1.0)
    ell0 = costs.constant_ell0(0.1)
    cfg = hjb.SolverConfig(**MINI_CFG)
    sol = hjb.picard_solve(heat_model, ham, phi, ell0, cfg)
    return sol, ham, phi, ell0, cfg

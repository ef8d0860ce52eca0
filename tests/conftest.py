import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from pshjb import costs, delay, heat, hjb
from pshjb.errors import GridMismatch, OutOfGrid, PshjbError
from pshjb.smoothing import lambda_norm, lambda_operator
from pshjb.spectral import psd_roots


@pytest.fixture(scope="session")
def heat_model():
    return heat.HeatProjectedModel(heat.HeatConfig())


@pytest.fixture(scope="session")
def heat_spectral1():
    cfg = heat.HeatConfig(n_modes=64, projection="spectral", spectral_modes=(1,))
    return heat.HeatProjectedModel(cfg)


@pytest.fixture(scope="session")
def heat_spectral12():
    cfg = heat.HeatConfig(n_modes=64, projection="spectral", spectral_modes=(1, 2))
    return heat.HeatProjectedModel(cfg)


def shipped_delay_config():
    return delay.DelayConfig(
        a0=[[-0.3, 0.1], [0.0, -0.2]],
        b0=[[1.0], [0.5]],
        sigma=[[1.0, 0.0], [0.0, 1.0]],
        delay=0.2,
        atoms=[(-0.2, [[0.4], [0.2]])],
    )


def scalar_delay_config(c=0.5, d=0.2):
    return delay.DelayConfig(
        a0=[[0.0]], b0=[[1.0]], sigma=[[1.0]], delay=d, atoms=[(-d, [[c]])]
    )


@pytest.fixture(scope="session")
def delay_model():
    return delay.build_projected_model(shipped_delay_config(), horizon=1.0)


@pytest.fixture(scope="session")
def delay_scalar():
    return delay.build_projected_model(scalar_delay_config(), horizon=1.0)


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


def assemble_block_cov(cov_fn, k, n):
    """Stack a k*n x k*n covariance from the block kernel cov_fn(i, j)."""
    big = np.empty((k * n, k * n))
    for i in range(k):
        for j in range(i, k):
            block = np.asarray(cov_fn(i, j), dtype=float)
            big[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
            big[j * n:(j + 1) * n, i * n:(i + 1) * n] = block.T
    return big


def sample_block_gaussian(cov_fn, k, n, rng, size=1):
    """Joint zero-mean Gaussian samples for a block covariance kernel.

    One global symmetric square root of the stacked covariance, which
    needs no structure of the kernel: an oracle independent of the
    simulation's per-step increments, which rest on the independence of
    the increments of the noise of Z(s) = P e^{(T-s)A} X(s).  Returns
    shape (size, k, n).
    """
    root = psd_roots(assemble_block_cov(cov_fn, k, n))[0]
    z = rng.standard_normal((size, k * n))
    return (z @ root.T).reshape(size, k, n)


class TooCloseToHorizon(PshjbError):
    """Gradient requested at a backward time below the first grid node."""


def random_iterate(ups, rng):
    """Random bounded iterate on the grids of the Picard map ``ups``, the
    probe of the contraction measurements."""
    n_t = ups.time_grid.size - 1
    npts = ups.mesh.shape[0]
    m = ups.model.control_dim
    f = np.empty((n_t + 1, npts))
    f[0] = ups.cost.phi(ups.mesh)
    t_pos = ups.time_grid[1:]
    a = rng.standard_normal(ups.model.proj_dim)
    mod_t = 1.0 + 0.5 * np.sin(3.0 * rng.random() * t_pos)[:, None]
    f[1:] = mod_t * np.tanh(ups.mesh @ a + rng.standard_normal())[None, :]
    fbar = np.empty((n_t, npts, m))
    for k in range(m):
        c = rng.standard_normal(ups.model.proj_dim)
        fbar[..., k] = (
            (1.0 + 0.3 * np.cos(2.0 * rng.random() * t_pos))[:, None]
            * np.tanh(ups.mesh @ c + rng.standard_normal())[None, :]
        )
    return ups._pack(f, fbar)


def zero_iterate(ups):
    """Iterate on the grids of the Picard map ``ups`` with f = 0 for t > 0,
    the terminal slice kept, and a zero gradient: a start other than the
    solve's."""
    f = np.zeros((ups.time_grid.size, ups.mesh.shape[0]))
    f[0] = ups.cost.phi(ups.mesh)
    return ups._pack(f, np.zeros(f[1:].shape + (ups.model.control_dim,)))


def iterate_to_tol(ups, g, cfg):
    """Exact applies of the Picard map ``ups`` from the iterate ``g`` until
    a sup residual of at most ``cfg.tol``, or ``cfg.max_iter`` applies;
    returns the last iterate and its residual."""
    for _ in range(cfg.max_iter):
        g_next = ups.apply(g)
        d = hjb.sup_distance(g_next, g)
        g = g_next
        if d <= cfg.tol:
            break
    return g, d


def weighted_distance(g1, g2, eta_weight):
    """Distance sup e^{-eta t}|f1 - f2| + sup e^{-eta t}|fbar1 - fbar2|.

    The decaying weight e^{-eta t} (eta >= 0) gives the equivalent
    (Bielecki-type) norm in which the paper proves that the Picard map
    contracts for eta large enough.  The weight is at most 1, and eta = 0 is
    ``hjb.sup_distance``, the norm of the stopping test.
    """
    hjb._check_grids(g1, g2)
    if g1.fbar_values.shape != g2.fbar_values.shape:
        raise GridMismatch("gradient value shapes differ")
    wt = np.exp(-eta_weight * g1.time_grid)
    df = np.abs(g1.f_values - g2.f_values).reshape(g1.time_grid.size, -1).max(axis=1)
    dbar = (
        np.abs(g1.fbar_values - g2.fbar_values)
        .reshape(g1.time_grid.size - 1, -1)
        .max(axis=1)
    )
    return float((wt * df).max() + (wt[1:] * dbar).max())


def contraction_ratios(ups, eta_weights, n_pairs, rng):
    """Measured ratios ||Ups g1 - Ups g2|| / ||g1 - g2|| on random pairs,
    one list per weight of ``eta_weights``, all from the same pairs."""
    pairs = [(random_iterate(ups, rng), random_iterate(ups, rng))
             for _ in range(n_pairs)]
    images = [(ups.apply(g1), ups.apply(g2)) for g1, g2 in pairs]

    def ratio(g, h, eta):
        d0 = weighted_distance(*g, eta)
        return weighted_distance(*h, eta) / d0 if d0 > 0 else 0.0

    return [[ratio(g, h, eta) for g, h in zip(pairs, images)] for eta in eta_weights]


def eval_c_gradient(sol, model, t, x):
    """Control-directional gradient of the solved v at (t, x), t < T.

    The stored representative is t^gamma-rescaled; the (T - t)^{-gamma}
    blow-up toward the horizon is reconstructed here.  Below the first time
    node the gradient is not resolved and :class:`TooCloseToHorizon` is
    raised.
    """
    T = sol.iterate.horizon
    if not 0.0 <= t <= T:
        raise OutOfGrid(f"t={t} outside [0, {T}]")
    tau = T - t
    if tau < sol.iterate.time_grid[1]:
        raise TooCloseToHorizon(
            f"T - t = {tau:.3g} below the first gradient node "
            f"{sol.iterate.time_grid[1]:.3g}"
        )
    y = np.asarray(model.proj_semigroup_apply(tau, x), dtype=float)
    hjb.check_in_box(sol.iterate.space_axes, y)
    return tau ** (-sol.gamma) * hjb.interp_fbar(sol.iterate, tau, y[:, None])[:, 0]


def c_gradient_semigroup(model, phi, t, y0, rule):
    """Control-directional gradient of R_t[phi] at projected drift ``y0``.

    Component k is the expectation, over a standardized Gaussian xi, of
    ``phi_bar(proj_cov(t)^{1/2} xi + y0) * <Lambda(t) e_k, xi>``; the linear
    weight is the Cameron-Martin derivative of the shifted Gaussian measure.
    """
    y0 = np.asarray(y0, dtype=float)
    sqrt_cov = psd_roots(model.proj_cov(t))[0]
    pts = y0[None, :] + rule.nodes @ sqrt_cov.T
    vals = phi(pts)
    weights = rule.nodes @ lambda_operator(model, t)    # (n_nodes, m)
    return (rule.weights * vals) @ weights


def c_gradient_norm_bound_check(model, phi, sup_phi, t, y0, rule):
    """Check |grad| <= ||Lambda(t)|| * sup|phi| with a small slack, for a
    cost ``phi`` bounded by ``sup_phi``.

    The bound is uniform over bounded projected costs.  Returns (|grad|,
    the bound, whether it holds).
    """
    grad = c_gradient_semigroup(model, phi, t, y0, rule)
    lhs = float(np.linalg.norm(grad))
    rhs = lambda_norm(model, t) * sup_phi
    ok = lhs <= rhs * (1.0 + 1e-3) + 1e-12
    return lhs, rhs, ok


MINI_CFG = dict(
    n_time=20, space_points=21, quad_order=5, time_quad_order=6,
    tol=1e-4, max_iter=30,
)


@pytest.fixture(scope="session")
def mini_delay_solution(delay_model):
    """Small-grid delay solve shared by solver and harness tests:
    (solution, cost, solver config), horizon 1."""
    cost = hjb.CostSpec(costs.constant_ell0(0.1), shipped_delay_ham(),
                        costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
    cfg = hjb.SolverConfig(**MINI_CFG)
    return hjb.picard_solve(delay_model, cost, cfg), cost, cfg


@pytest.fixture(scope="session")
def mini_heat_solution(heat_model):
    """Small-grid heat solve for harness coverage of the m = 2 control path:
    (solution, cost, solver config), horizon 1."""
    cost = hjb.CostSpec(costs.constant_ell0(0.1), shipped_heat_ham(),
                        costs.tanh_cost([0.8, -0.5], 0.0, 1.0))
    cfg = hjb.SolverConfig(**MINI_CFG)
    return hjb.picard_solve(heat_model, cost, cfg), cost, cfg

import numpy as np
import pytest

from pshjb import costs
from pshjb.errors import (
    GridMismatch,
    NoContraction,
    OutOfGrid,
    TooCloseToHorizon,
)
from pshjb.hjb import (
    Hamiltonian,
    SolverConfig,
    UpsilonOperator,
    auto_select_eta,
    contraction_ratios,
    eval_c_gradient,
    eval_value,
    h_min_batch,
    interp_shifted,
    interp_space,
    make_space_axes,
    picard_solve,
    shift_stencil,
    weighted_distance,
)
from pshjb.ou import semigroup_apply
from pshjb.spectral import build_quadrature

from conftest import MINI_CFG, nearest_multilinear, shipped_delay_ham


class TestHMin:
    def test_trivial_control_set(self):
        ham = Hamiltonian(np.zeros((1, 3)), np.zeros(1))
        for p in (np.zeros(3), np.array([1.0, -2.0, 0.5])):
            value, idx = h_min_batch(ham, p[:, None], argmin=True)
            assert (value[0], idx[0]) == (0.0, 0)

    def test_two_point_enumeration(self):
        ham = Hamiltonian(np.array([[-1.0], [1.0]]), np.zeros(2))
        value, idx = h_min_batch(ham, np.array([[2.0]]), argmin=True)
        assert value[0] == -2.0
        assert idx[0] == 0                   # u = -1 sits at index 0

    def test_zero_gradient_minimizes_cost(self):
        ham = Hamiltonian(np.array([[1.0], [2.0], [3.0]]),
                          np.array([0.7, 0.2, 0.2]))
        value, idx = h_min_batch(ham, np.zeros((1, 1)), argmin=True)
        assert value[0] == 0.2
        assert idx[0] == 1                   # ties break to the lowest index


class TestScatteredInterpolation:
    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    @pytest.mark.parametrize("n_comp", [1, 2])
    def test_matches_map_coordinates(self, n_dim, n_comp):
        # a non-square grid with its own step per axis; points inside the
        # box, beyond both edges, on grid nodes and on the last node
        rng = np.random.default_rng(10 * n_dim + n_comp)
        axes = tuple(
            np.linspace(-1.0 - 0.3 * d, 1.5 + 0.2 * d, 4 + 3 * d)
            for d in range(n_dim)
        )
        lo = np.array([a[0] for a in axes])
        hi = np.array([a[-1] for a in axes])
        width = hi - lo
        nodes = np.stack([rng.choice(a, 8) for a in axes], axis=-1)
        pts = np.concatenate([
            rng.uniform(lo, hi, (40, n_dim)),                     # inside
            lo - width * rng.uniform(0.01, 2.0, (6, n_dim)),      # below
            hi + width * rng.uniform(0.01, 2.0, (6, n_dim)),      # above
            rng.uniform(lo - width, hi + width, (20, n_dim)),     # mixed
            nodes,                                                # grid nodes
            np.stack([lo, hi, np.where(np.arange(n_dim) % 2, lo, hi)]),
        ])
        fields = rng.standard_normal((n_comp,) + tuple(a.size for a in axes))
        got = interp_space(axes, fields, pts.T)
        assert got.shape == (n_comp, pts.shape[0])
        for k in range(n_comp):
            ref = nearest_multilinear(axes, fields[k], pts)
            assert np.abs(got[k] - ref).max() <= 1e-13
        # a single field without a component axis
        ref = nearest_multilinear(axes, fields[0], pts)
        assert np.abs(interp_space(axes, fields[0], pts.T) - ref).max() <= 1e-13


class TestShiftInterpolation:
    @pytest.mark.parametrize("name", ["heat_spectral1", "heat_model", "delay_model"])
    def test_matches_scattered_interpolation(self, name, request):
        # N = 1 (m = 2), N = 2 (m = 2) and N = 2 (m = 1): the separable kernel
        # against map_coordinates at mesh + shift, for two fields broadcast
        # against a batch of shifts as in the Picard map
        model = request.getfixturevalue(name)
        axes = make_space_axes(model, SolverConfig(**MINI_CFG))
        n_dim, m = len(axes), model.control_dim
        shape = tuple(a.size for a in axes)
        step, width = axes[0][1] - axes[0][0], axes[0][-1] - axes[0][0]
        rng = np.random.default_rng(11)
        shifts = np.concatenate([
            0.3 * width * rng.uniform(-1.0, 1.0, (6, n_dim)),   # inside, partly clamped
            1.5 * width * rng.uniform(-1.0, 1.0, (4, n_dim)),   # beyond the box edge
            step * rng.integers(-4, 5, (4, n_dim)),             # onto grid nodes
        ])
        fields = rng.standard_normal((m, 2, 1) + shape)
        stencil = shift_stencil(axes, np.broadcast_to(shifts, (2,) + shifts.shape))
        got = interp_shifted(fields, stencil)
        assert got.shape == (m, 2, len(shifts)) + shape
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
        for k in range(m):
            for b in range(2):
                for i, c in enumerate(shifts):
                    ref = nearest_multilinear(axes, fields[k, b, 0], mesh + c)
                    err = np.abs(got[k, b, i] - ref.reshape(shape)).max()
                    assert err <= 1e-13


class TestWeightedDistance:
    def test_identical_iterates(self, mini_delay_solution):
        sol, *_ = mini_delay_solution
        assert weighted_distance(sol.iterate, sol.iterate, 2.0) == 0.0

    def test_constant_difference_unweighted(self, mini_delay_solution):
        sol, *_ = mini_delay_solution
        g = sol.iterate
        from dataclasses import replace

        g2 = replace(g, f_values=g.f_values + 0.5)
        assert abs(weighted_distance(g, g2, 0.0) - 0.5) <= 1e-14

    def test_weight_bounds(self, mini_delay_solution):
        # decaying weight: d_eta <= d_0 <= e^{eta T} d_eta
        sol, *_ = mini_delay_solution
        rng = np.random.default_rng(0)
        from dataclasses import replace

        g = sol.iterate
        g2 = replace(
            g,
            f_values=g.f_values + 0.1 * rng.standard_normal(g.f_values.shape),
            fbar_values=g.fbar_values
            + 0.1 * rng.standard_normal(g.fbar_values.shape),
        )
        d0 = weighted_distance(g, g2, 0.0)
        d2 = weighted_distance(g, g2, 2.0)
        T = g.horizon
        assert d2 <= d0 + 1e-14
        assert d0 <= np.exp(2.0 * T) * d2 + 1e-14

    def test_grid_mismatch(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        other_cfg = SolverConfig(**{**MINI_CFG, "n_time": 12})
        ups = UpsilonOperator(delay_model, ham, phi, ell0, other_cfg, gamma=0.52)
        with pytest.raises(GridMismatch):
            weighted_distance(sol.iterate, ups.initial_iterate(), 0.0)


@pytest.fixture(scope="module")
def trivial_ups(delay_model):
    ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
    phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
    ell0 = costs.constant_ell0(0.3)
    cfg = SolverConfig(**MINI_CFG)
    return UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=0.52)


class TestUpsilon:
    def test_trivial_hamiltonian_is_constant_map(self, trivial_ups):
        g0 = trivial_ups.initial_iterate()
        rng = np.random.default_rng(1)
        g_rand = trivial_ups.random_iterate(rng)
        out0 = trivial_ups.apply(g0)
        out1 = trivial_ups.apply(g_rand)
        assert weighted_distance(out0, out1, 0.0) <= 1e-13
        # with ell0 = c the value part is semigroup + c t
        np.testing.assert_allclose(
            out0.f_values, g0.f_values, atol=1e-13
        )

    def test_constant_ell0_integral(self, trivial_ups, delay_model):
        g = trivial_ups.apply(trivial_ups.initial_iterate())
        # at the deterministic center state the f slice includes 0.3 * t
        t_grid = g.time_grid
        mid = tuple(s // 2 for s in trivial_ups.space_shape)
        for i in (3, 10, len(t_grid) - 1):
            t = t_grid[i]
            y0 = np.array([trivial_ups.space_axes[d][mid[d]] for d in range(2)])
            rule = build_quadrature(2, "tensor-hermite", 12)
            ref = semigroup_apply(
                delay_model, trivial_ups.phi, t, y0, rule
            ) + 0.3 * t
            assert abs(g.f_values[(i,) + mid] - ref) <= 2e-5

    def test_zero_gradient_iterate_constant_convolution(self, delay_model):
        # fbar == 0 makes the convolution integrand the constant min(ell1)
        ham = Hamiltonian(np.array([[0.5], [-0.5]]), np.array([0.25, 0.75]))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        ell0 = costs.constant_ell0(0.0)
        cfg = SolverConfig(**MINI_CFG)
        ups = UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=0.52)
        g = ups.zero_iterate()
        out = ups.apply(g)
        t_pos = out.time_grid[1:]
        # H_min(s^{-gamma} * 0) = min over u of ell1 = 0.25... only when the
        # linear term vanishes; with fbar = 0, H_min(0) = min(ell1)
        conv = out.f_values[1:] - ups.s_f.reshape(out.f_values[1:].shape)
        expected = 0.25 * t_pos
        err = np.abs(conv - expected[:, None, None]).max()
        assert err <= 1e-10


class TestPicard:
    def test_trivial_converges_in_one_iteration(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        sol = picard_solve(
            delay_model, ham, phi, costs.constant_ell0(0.0),
            SolverConfig(**MINI_CFG),
        )
        assert sol.iterations == 1
        assert sol.residual <= 1e-12

    def test_mini_solve_converges_geometrically(self, mini_delay_solution):
        sol, *_ = mini_delay_solution
        assert sol.residual <= 1e-4
        assert sol.iterations <= 30
        hist = sol.diagnostics["residual_history"]
        ratios = [b / a for a, b in zip(hist[:-1], hist[1:])]
        assert all(r < 1.0 for r in ratios[2:])

    def test_uniqueness_from_different_starts(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        sol0 = picard_solve(delay_model, ham, phi, ell0, cfg, initial="zero")
        d = weighted_distance(sol.iterate, sol0.iterate, sol.eta_weight)
        assert d <= 2.0 * cfg.tol

    def test_uniqueness_from_random_start(self, mini_delay_solution, delay_model):
        # a genuinely different start (the zero start merges into the
        # semigroup trajectory after one step since its gradient vanishes)
        sol, ham, phi, ell0, cfg = mini_delay_solution
        ups = UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=sol.gamma)
        g = ups.random_iterate(np.random.default_rng(3))
        for _ in range(cfg.max_iter):
            g_next = ups.apply(g)
            d = weighted_distance(g_next, g, sol.eta_weight)
            g = g_next
            if d < cfg.tol:
                break
        assert d < cfg.tol
        assert weighted_distance(g, sol.iterate, sol.eta_weight) <= 2.0 * cfg.tol

    def test_no_contraction_detected(self, delay_model):
        # enormous controls at a pinned weight of zero cannot contract
        ham = Hamiltonian(np.array([[-60.0], [60.0]]), np.zeros(2))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cfg = SolverConfig(**{**MINI_CFG, "eta_weight": 0.0, "gamma": 0.52})
        with pytest.raises(NoContraction):
            picard_solve(delay_model, ham, phi, costs.constant_ell0(0.0), cfg)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(horizon=1.0, gamma=1.5)

    def test_larger_gamma_also_solves(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cfg_hi = SolverConfig(**{**MINI_CFG, "gamma": min(sol.gamma + 0.2, 0.9)})
        sol_hi = picard_solve(delay_model, ham, phi, ell0, cfg_hi)
        assert sol_hi.residual <= cfg_hi.tol


class TestContractionMeasurement:
    def test_ratios_below_target_at_selected_eta(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        ups = UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=sol.gamma)
        eta = auto_select_eta(ups, n_pairs=2)
        ratios = contraction_ratios(ups, eta, n_pairs=3,
                                    rng=np.random.default_rng(5))
        assert max(ratios) < 0.9


class TestEvaluation:
    def test_terminal_value_exact(self, mini_delay_solution, delay_model):
        from pshjb.delay import DelayState

        sol, ham, phi, ell0, cfg = mini_delay_solution
        for x0 in ([0.0, 0.0], [0.4, -0.2], [1.5, 0.7]):
            x = DelayState.zero_past(x0, 0.2)
            assert eval_value(sol, delay_model, cfg.horizon, x) == float(
                phi(np.asarray(x0))
            )

    def test_trivial_solution_matches_semigroup(self, delay_model):
        # states chosen to project exactly onto grid nodes at the queried
        # backward times, so the comparison isolates the quadrature chain
        # from grid-resolution error
        from scipy.linalg import expm

        from pshjb.delay import DelayState

        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        c = 0.25
        cfg = SolverConfig(**MINI_CFG)
        sol = picard_solve(delay_model, ham, phi, costs.constant_ell0(c), cfg)
        rule = build_quadrature(2, "tensor-hermite", 12)
        axes = sol.iterate.space_axes
        for i, (j1, j2) in ((2, (10, 12)), (8, (9, 10)), (15, (11, 9))):
            tau = sol.iterate.time_grid[1:][i]
            y_node = np.array([axes[0][j1], axes[1][j2]])
            x = DelayState.zero_past(expm(-tau * delay_model.cfg.a0) @ y_node, 0.2)
            ref = semigroup_apply(delay_model, phi, tau, y_node, rule) + c * tau
            got = eval_value(sol, delay_model, cfg.horizon - tau, x)
            assert abs(got - ref) <= 1e-4

    def test_monotone_in_terminal_cost(self, delay_model):
        from pshjb.delay import DelayState

        ham = shipped_delay_ham()
        ell0 = costs.constant_ell0(0.0)
        cfg = SolverConfig(**MINI_CFG)
        phi_lo = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        phi_hi = costs.tanh_cost([1.0, 1.0], 2.0, 1.0)   # pointwise larger
        sol_lo = picard_solve(delay_model, ham, phi_lo, ell0, cfg)
        sol_hi = picard_solve(delay_model, ham, phi_hi, ell0, cfg)
        for x0 in ([0.0, 0.0], [0.5, 0.2], [-0.6, 0.4]):
            x = DelayState.zero_past(x0, 0.2)
            for t in (0.0, 0.4, 0.9):
                assert eval_value(sol_lo, delay_model, t, x) <= eval_value(
                    sol_hi, delay_model, t, x
                ) + 1e-6

    def test_gradient_matches_semigroup_for_trivial(self, delay_model):
        from scipy.linalg import expm

        from pshjb.delay import DelayState
        from pshjb.smoothing import c_gradient_semigroup

        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cfg = SolverConfig(**{**MINI_CFG, "quad_order": 8})
        sol = picard_solve(delay_model, ham, phi, costs.constant_ell0(0.0), cfg)
        rule = build_quadrature(2, "tensor-hermite", 12)
        axes = sol.iterate.space_axes
        for i, (j1, j2) in ((5, (10, 11)), (12, (9, 10))):
            tau = sol.iterate.time_grid[1:][i]
            y_node = np.array([axes[0][j1], axes[1][j2]])
            x = DelayState.zero_past(expm(-tau * delay_model.cfg.a0) @ y_node, 0.2)
            ref = c_gradient_semigroup(delay_model, phi, tau, y_node, rule)
            got = eval_c_gradient(sol, delay_model, cfg.horizon - tau, x)
            np.testing.assert_allclose(got, ref, atol=2e-4)

    def test_constant_phi_zero_gradient(self, delay_model):
        from pshjb.delay import DelayState

        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.constant_cost(2.0)
        sol = picard_solve(
            delay_model, ham, phi, costs.constant_ell0(0.0),
            SolverConfig(**MINI_CFG),
        )
        g = eval_c_gradient(sol, delay_model, 0.3, DelayState.zero_past([0.1, 0.1], 0.2))
        assert np.abs(g).max() <= 1e-12

    def test_solution_gradient_finite_difference(self, mini_delay_solution, delay_model):
        # the solved fbar must be the control-directional derivative of the
        # solved f: finite differences along proj_control directions
        from pshjb.hjb import interp_f, interp_fbar

        sol, *_ = mini_delay_solution
        it = sol.iterate
        rng = np.random.default_rng(8)
        for _ in range(5):
            tau = float(rng.uniform(0.3, 0.9))
            y = 0.3 * rng.standard_normal(2)
            k = int(rng.integers(it.control_dim))
            b_col = delay_model.proj_control(tau)[:, k]
            a = 1e-3
            fd = (
                interp_f(it, tau, (y + a * b_col)[:, None])[0]
                - interp_f(it, tau, (y - a * b_col)[:, None])[0]
            ) / (2 * a)
            grad_k = tau ** (-sol.gamma) * interp_fbar(it, tau, y[:, None])[k, 0]
            # bilinear interpolation of f limits the FD fidelity on the
            # coarse mini grid; the agreement scale is the grid spacing
            assert abs(grad_k - fd) <= 0.08 * max(1.0, abs(fd))

    def test_out_of_grid_and_horizon_errors(self, mini_delay_solution, delay_model):
        from pshjb.delay import DelayState

        sol, *_ = mini_delay_solution
        x = DelayState.zero_past([50.0, 50.0], 0.2)     # far outside the box
        with pytest.raises(OutOfGrid):
            eval_value(sol, delay_model, 0.5, x)
        near = DelayState.zero_past([0.1, 0.1], 0.2)
        with pytest.raises(TooCloseToHorizon):
            eval_c_gradient(sol, delay_model, sol.iterate.horizon - 1e-7, near)
        with pytest.raises(OutOfGrid):
            eval_value(sol, delay_model, 2.0, near)

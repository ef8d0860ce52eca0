import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pshjb import costs, harness
from pshjb.delay import DelayState
from pshjb.errors import DominanceViolated
from pshjb.ou import ProjectedTerminalCost
from pshjb.harness import (
    CostSpec,
    Policy,
    _control_integrals,
    random_open_loop_policies,
    simulate_cost,
    value_dominance_check,
)
from pshjb.hjb import (
    Hamiltonian,
    SolverConfig,
    _time_bracket,
    eval_c_gradient,
    eval_value,
    h_min_batch,
    picard_solve,
)
from conftest import MINI_CFG, nearest_multilinear, sample_block_gaussian, shipped_delay_ham


X0 = DelayState.zero_past([0.3, -0.2], 0.2)


def make_cost(ham, phi, c=0.1):
    return CostSpec(ell0=costs.constant_ell0(c), ham=ham, phi=phi, horizon=1.0)


# ---------------------------------------------------------------------------
# reference greedy simulation: one map_coordinates call per component and
# time slice, samples-first arrays, noise from sample_block_gaussian

def per_slice_interp(axes, slices, t_axis, tau, pts):
    """Linear-in-time, multilinear-in-space interpolation of one field,
    each bracketing slice separately; ``pts`` has shape (B, N)."""
    i0, i1, theta = _time_bracket(t_axis, tau)
    v0 = nearest_multilinear(axes, slices[i0], pts)
    if i1 != i0 and theta > 0:
        return (1.0 - theta) * v0 + theta * nearest_multilinear(axes, slices[i1], pts)
    return v0


def reference_fbar(iterate, tau, pts):
    """(B, m) gradient representative, one component at a time."""
    return np.stack([
        per_slice_interp(iterate.space_axes, iterate.fbar_values[..., k],
                         iterate.time_grid[1:], tau, pts)
        for k in range(iterate.control_dim)
    ], axis=-1)


def reference_greedy(model, cost, sol, t0, x0, n_samples, time_steps, seed):
    """(n_samples,) time and running costs and (n_samples, N) terminal
    states of the greedy policy."""
    T = cost.horizon
    rng = np.random.default_rng(seed)
    steps = np.linspace(t0, T, time_steps + 1)
    dt = steps[1] - steps[0]
    b_ints = _control_integrals(model, t0, T, steps)
    u_grid, ell1 = cost.ham.control_points, cost.ham.running_cost
    z_det = np.asarray(model.proj_semigroup_apply(T - t0, x0), dtype=float)

    def block(i, j):
        s = steps[min(i, j) + 1]
        if s >= T:
            return model.proj_cov(T - t0)
        return model.pushforward_cov(T - s, T - t0)

    noise = sample_block_gaussian(block, time_steps, model.proj_dim, rng, n_samples)
    t_min = sol.iterate.time_grid[1]
    ctrl_sum = np.zeros((n_samples, model.proj_dim))
    run_cost = np.zeros(n_samples)
    z = np.tile(z_det, (n_samples, 1))
    for j in range(time_steps):
        tau = max(T - steps[j], t_min)
        p = tau ** (-sol.gamma) * reference_fbar(sol.iterate, tau, z)
        _, idx = h_min_batch(cost.ham, p.T, argmin=True)
        run_cost += ell1[idx] * dt
        ctrl_sum += u_grid[idx] @ b_ints[j].T
        z = z_det[None, :] + ctrl_sum + noise[:, j, :]
    return cost.ell0_integral(t0, T) + run_cost, z


def reference_open_loop(model, cost, idx, t0, x0, n_samples, time_steps, seed):
    """Exact terminal sampling, whole population at once, mean step by step;
    returns what ``reference_greedy`` does."""
    T = cost.horizon
    rng = np.random.default_rng(seed)
    steps = np.linspace(t0, T, time_steps + 1)
    dt = steps[1] - steps[0]
    b_ints = _control_integrals(model, t0, T, steps)
    u_grid, ell1 = cost.ham.control_points, cost.ham.running_cost
    mean = np.asarray(model.proj_semigroup_apply(T - t0, x0), dtype=float)
    run_cost = 0.0
    for j in range(time_steps):
        mean = mean + b_ints[j] @ u_grid[idx[j]]
        run_cost += ell1[idx[j]] * dt
    noise = sample_block_gaussian(lambda i, j: model.proj_cov(T - t0), 1,
                                  model.proj_dim, rng, n_samples)[:, 0]
    return cost.ell0_integral(t0, T) + run_cost, mean + noise


HEAT_X0 = 0.5 * np.arange(1, 257, dtype=float) ** -2.0


@pytest.fixture(params=["heat", "delay"])
def solved_case(request):
    """(model, cost, solution, x0) for the mini heat (m = 2) and delay
    (m = 1) solutions."""
    name = request.param
    model = request.getfixturevalue(f"{name}_model")
    sol, ham, phi, ell0, cfg = request.getfixturevalue(f"mini_{name}_solution")
    cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
    return model, cost, sol, HEAT_X0 if name == "heat" else X0


class TestAgainstReferenceLoop:
    # 160-sample blocks: 19 blocks of 3000 samples and 4 of 500, the last
    # one ragged in both
    CASES = ((0.0, 3000, 20, 11), (0.35, 500, 7, 3))

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "_SIM_BLOCK", 160)

    @staticmethod
    def assert_costs_match(model, cost, pol, t0, x0, n, steps, seed, ref):
        """Costs under the problem's terminal cost and under each coordinate
        of P X(T) as terminal cost: the running costs and every coordinate
        of every terminal state agree with the reference to 1e-12."""
        run_cost, z = ref
        assert z.shape == (n, model.proj_dim)
        coords = [
            ProjectedTerminalCost(lambda y, k=k: y[..., k], float("inf"))
            for k in range(model.proj_dim)
        ]
        for phi in [cost.phi] + coords:
            res = simulate_cost(model, replace(cost, phi=phi), pol, t0, x0, n,
                                steps, seed=seed)
            assert res.sample_costs.shape == (n,)
            assert np.abs(res.sample_costs - (run_cost + phi(z))).max() <= 1e-12

    def test_greedy_matches_reference(self, solved_case):
        model, cost, sol, x0 = solved_case
        for t0, n, steps, seed in self.CASES:
            ref = reference_greedy(model, cost, sol, t0, x0, n, steps, seed)
            self.assert_costs_match(model, cost, Policy.greedy(sol), t0, x0, n,
                                    steps, seed, ref)

    def test_open_loop_matches_reference(self, solved_case):
        model, cost, _, x0 = solved_case
        for t0, n, steps, seed in self.CASES:
            pol = random_open_loop_policies(cost.ham, steps, 1, seed=seed)[0]
            ref = reference_open_loop(model, cost, pol.indices, t0, x0, n,
                                      steps, seed)
            self.assert_costs_match(model, cost, pol, t0, x0, n, steps, seed, ref)

    def test_eval_matches_per_slice(self, solved_case):
        model, cost, sol, x0 = solved_case
        it = sol.iterate
        f_scale = np.abs(it.f_values).max()
        g_scale = np.abs(it.fbar_values).max()
        # between time nodes, on a node, and at the last node (t = 0)
        for t in (0.0, 0.2, 1.0 - it.time_grid[7], 0.61, 0.97):
            tau = 1.0 - t
            y = np.asarray(model.proj_semigroup_apply(tau, x0), dtype=float)
            ref = per_slice_interp(it.space_axes, it.f_values, it.time_grid,
                                   tau, y[None, :])[0]
            assert abs(eval_value(sol, model, t, x0) - ref) <= 1e-13 * f_scale
            ref_g = tau ** (-sol.gamma) * reference_fbar(it, tau, y[None, :])[0]
            got_g = eval_c_gradient(sol, model, t, x0)
            assert got_g.shape == ref_g.shape
            assert np.abs(got_g - ref_g).max() <= 1e-13 * tau ** (-sol.gamma) * g_scale


class TestCostBuilders:
    def test_table_ell0_interpolates(self):
        ell0 = costs.table_ell0([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(ell0([0.25, 0.5, 0.75]), [0.5, 1.0, 0.5])
        cost = CostSpec(ell0=ell0, ham=shipped_delay_ham(),
                        phi=costs.constant_cost(0.0), horizon=1.0)
        assert abs(cost.ell0_integral(0.0, 1.0) - 0.5) <= 1e-9

    def test_smooth_indicator_bounded_step(self):
        phi = costs.smooth_indicator_cost([1.0, 0.0], threshold=0.0,
                                          sharpness=30.0, scale=2.0)
        y = np.array([[-5.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        vals = phi(y)
        assert vals[0] <= 1e-8
        assert abs(vals[1] - 1.0) <= 1e-12
        assert abs(vals[2] - 2.0) <= 1e-8
        assert phi.bound == 2.0


class TestSimulateCost:
    def test_all_costs_equal_for_trivial_problem(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        cost = make_cost(ham, costs.constant_cost(2.5), c=0.0)
        res = simulate_cost(delay_model, cost, Policy.constant(0), 0.0, X0,
                            n_samples=500, seed=4)
        assert np.all(res.sample_costs == 2.5)
        assert res.std_error == 0.0

    def test_constant_control_linear_phi_mean(self, delay_model):
        from pshjb.harness import _control_integrals
        from pshjb.ou import ProjectedTerminalCost

        ham = shipped_delay_ham()
        a = np.array([1.0, -0.7])
        phi = ProjectedTerminalCost(lambda y: y @ a, bound=100.0)
        cost = make_cost(ham, phi, c=0.0)
        idx = 3                                     # u = +0.5
        res = simulate_cost(delay_model, cost, Policy.constant(idx), 0.0, X0,
                            n_samples=40_000, time_steps=20, seed=5)
        steps = np.linspace(0.0, 1.0, 21)
        b_ints = _control_integrals(delay_model, 0.0, 1.0, steps)
        mean_terminal = delay_model.proj_semigroup_apply(1.0, X0) + np.einsum(
            "jnk,k->n", b_ints, ham.control_points[idx]
        )
        expected = mean_terminal @ a + ham.running_cost[idx] * 1.0
        assert abs(res.mean - expected) <= 3.0 * res.std_error

    def test_deterministic_for_fixed_seed(self, delay_model):
        ham = shipped_delay_ham()
        cost = make_cost(ham, costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
        pol = Policy.open_loop(np.array([0, 1, 2, 3, 4] * 4))
        r1 = simulate_cost(delay_model, cost, pol, 0.0, X0, 200, 20, seed=42)
        r2 = simulate_cost(delay_model, cost, pol, 0.0, X0, 200, 20, seed=42)
        assert np.array_equal(r1.sample_costs, r2.sample_costs)
        assert (r1.mean, r1.std_error) == (r2.mean, r2.std_error)

    @pytest.mark.parametrize("kw", [{"n_samples": 0}, {"n_samples": -1},
                                    {"time_steps": 0}])
    def test_empty_simulation_rejected(self, mini_delay_solution, delay_model, kw):
        sol = mini_delay_solution[0]
        cost = make_cost(shipped_delay_ham(), costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
        for pol in (Policy.constant(0), Policy.greedy(sol)):
            with pytest.raises(ValueError, match=">= 1"):
                simulate_cost(delay_model, cost, pol, 0.0, X0, **kw)

    def test_ell0_enters_additively(self, delay_model):
        ham = shipped_delay_ham()
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        pol = Policy.constant(2)
        res0 = simulate_cost(
            delay_model, make_cost(ham, phi, c=0.0), pol, 0.0, X0, 300, 20, seed=3
        )
        res1 = simulate_cost(
            delay_model, make_cost(ham, phi, c=0.4), pol, 0.0, X0, 300, 20, seed=3
        )
        np.testing.assert_allclose(
            res1.sample_costs - res0.sample_costs, 0.4, atol=1e-9
        )

    def test_greedy_runs_and_is_sane(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        res = simulate_cost(delay_model, cost, Policy.greedy(sol), 0.0, X0,
                            n_samples=2000, time_steps=20, seed=6)
        assert np.isfinite(res.mean)
        # greedy can at most match the best constant policy up to noise
        best_const = min(
            simulate_cost(delay_model, cost, Policy.constant(j), 0.0, X0,
                          2000, 20, seed=7 + j).mean
            for j in range(ham.control_points.shape[0])
        )
        assert res.mean <= best_const + 0.05


class TestControlIntegralTable:
    """The policies of a round share one control-integral table."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        harness._step_control_integrals.cache_clear()
        yield
        harness._step_control_integrals.cache_clear()

    def test_built_once_per_round(self, delay_model, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args[1:3])
            return _control_integrals(*args, **kwargs)

        monkeypatch.setattr(harness, "_control_integrals", counted)
        cost = make_cost(shipped_delay_ham(), costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
        for idx in (0, 4):
            simulate_cost(delay_model, cost, Policy.constant(idx), 0.0, X0,
                          50, 20, seed=1)
        assert built == [(0.0, 1.0)]
        simulate_cost(delay_model, cost, Policy.constant(0), 0.0, X0, 50, 10,
                      seed=1)
        assert len(built) == 2

    def test_table_is_read_only(self, delay_model):
        table = harness._step_control_integrals(delay_model, 0.0, 1.0, 20)
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_costs_match_a_table_per_call(self, mini_delay_solution, delay_model,
                                          monkeypatch):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        policies = random_open_loop_policies(ham, 20, 2, seed=3)
        policies.append(Policy.greedy(sol))

        def round_costs():
            return [simulate_cost(delay_model, cost, pol, 0.0, X0, 500, 20,
                                  seed=9).sample_costs for pol in policies]

        shared = round_costs()
        monkeypatch.setattr(harness, "_step_control_integrals",
                            harness._step_control_integrals.__wrapped__)
        for a, b in zip(shared, round_costs()):
            assert np.array_equal(a, b)


class TestGreedyNoiseBlocks:
    def test_one_block_per_step(self, mini_delay_solution, delay_model, monkeypatch):
        # Cov(Y_i, Y_j) depends on min(i, j) only: 20 steps need 19
        # pushforward_cov blocks, from one stacked query, and one proj_cov
        # block, not one per pair; the costs equal those of the per-pair
        # assembly
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        steps, T = np.linspace(0.0, 1.0, 21), cfg.horizon

        def greedy_costs():
            return simulate_cost(delay_model, cost, Policy.greedy(sol), 0.0, X0,
                                 500, 20, seed=9).sample_costs

        calls = {"pushforward_cov": 0, "proj_cov": 0}
        blocks = {"pushforward_cov": 0, "proj_cov": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(delay_model, name)):
                calls[_name] += 1
                out = _fn(*args)
                blocks[_name] += out.size // delay_model.proj_dim**2
                return out
            monkeypatch.setattr(delay_model, name, counted)
        shared = greedy_costs()
        assert calls == {"pushforward_cov": 1, "proj_cov": 1}
        assert blocks == {"pushforward_cov": 19, "proj_cov": 1}
        monkeypatch.undo()

        def per_pair(i, j):
            s = steps[min(i, j) + 1]
            if s >= T:
                return delay_model.proj_cov(T)
            return delay_model.pushforward_cov(T - s, T)

        assemble = harness.assemble_block_cov
        monkeypatch.setattr(harness, "assemble_block_cov",
                            lambda fn, k, n: assemble(per_pair, k, n))
        assert np.array_equal(shared, greedy_costs())


class TestSampleBlocks:
    """Blocks change no number: the generator's stream and every per-sample
    step are the same in one block or many."""

    BLOCK = 64

    @pytest.mark.parametrize("n", [1, BLOCK, 3 * BLOCK + 5])
    def test_same_as_one_block(self, solved_case, monkeypatch, n):
        model, cost, sol, x0 = solved_case
        policies = [Policy.constant(1), Policy.greedy(sol)]
        policies += random_open_loop_policies(cost.ham, 10, 1, seed=2)

        def results():
            return [simulate_cost(model, cost, pol, 0.0, x0, n, 10, seed=4)
                    for pol in policies]

        whole = results()                      # n is below the default block
        monkeypatch.setattr(harness, "_SIM_BLOCK", self.BLOCK)
        for a, b in zip(whole, results()):
            assert np.array_equal(a.sample_costs, b.sample_costs)
            assert (a.mean, a.std_error) == (b.mean, b.std_error)

    # The only whole-population arrays are the (n,) costs and, while the
    # standard error is taken, one temporary of their size: 16 n bytes.
    # Terminal states or terminal-cost temporaries of the whole population
    # would add at least another 16 n, more than the block allowance leaves
    # free at this n.
    N_MEM = 600_000

    @staticmethod
    def traced_peak(delay_model, cost, pol, n, steps):
        tracemalloc.start()
        try:
            simulate_cost(delay_model, cost, pol, 0.0, X0, n, steps, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_greedy_memory_is_per_block(self, mini_delay_solution, delay_model):
        # beyond the costs: a few blocks of step noise
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        n, steps, n_dim = self.N_MEM, 20, delay_model.proj_dim
        block_noise = 8 * harness._SIM_BLOCK * steps * n_dim
        peak = self.traced_peak(delay_model, cost, Policy.greedy(sol), n, steps)
        assert peak < 16 * n + 3 * block_noise

    def test_open_loop_memory_is_per_block(self, mini_delay_solution, delay_model):
        # beyond the costs: a few blocks of terminal states and draws
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        n, steps, n_dim = self.N_MEM, 20, delay_model.proj_dim
        block_states = 8 * harness._SIM_BLOCK * n_dim
        pol = random_open_loop_policies(ham, steps, 1, seed=1)[0]
        peak = self.traced_peak(delay_model, cost, pol, n, steps)
        assert peak < 16 * n + 4 * block_states


class TestDominance:
    def test_trivial_control_value_matches_cost(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        ell0 = costs.constant_ell0(0.1)
        sol = picard_solve(delay_model, ham, phi, ell0, SolverConfig(**MINI_CFG))
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=1.0)
        res = simulate_cost(delay_model, cost, Policy.constant(0), 0.0, X0,
                            20_000, 20, seed=8)
        v = eval_value(sol, delay_model, 0.0, X0)
        # single admissible control: value equals the policy cost up to
        # quadrature/interpolation bias plus Monte Carlo noise
        assert abs(v - res.mean) <= 5e-3 + 3.0 * res.std_error

    def test_dominance_report(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        pols = random_open_loop_policies(ham, 20, 4, seed=1)
        pols.append(Policy.greedy(sol))
        report = value_dominance_check(
            delay_model, cost, sol, pols, 0.0, X0,
            n_samples=4000, time_steps=20, seed=2,
        )
        assert all(p["ok"] for p in report["policies"])
        assert report["greedy_gap"] is not None
        # all open-loop gaps nonnegative well beyond noise here
        gaps = [p["gap"] for p in report["policies"] if p["kind"] == "open_loop"]
        assert min(gaps) > 0

    def test_dominance_three_initial_conditions_delay(
        self, mini_delay_solution, delay_model
    ):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        pols = random_open_loop_policies(ham, 20, 3, seed=5)
        pols.append(Policy.greedy(sol))
        for x0 in ([0.0, 0.0], [0.5, 0.3], [-0.8, 0.4]):
            report = value_dominance_check(
                delay_model, cost, sol, pols, 0.0,
                DelayState.zero_past(x0, 0.2),
                n_samples=3000, time_steps=20, seed=9,
            )
            assert all(p["ok"] for p in report["policies"])

    def test_dominance_three_initial_conditions_heat(
        self, mini_heat_solution, heat_model
    ):
        sol, ham, phi, ell0, cfg = mini_heat_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        pols = random_open_loop_policies(ham, 20, 3, seed=6)
        pols.append(Policy.greedy(sol))
        k = np.arange(1, 257, dtype=float)
        for amp in (0.0, 0.5, -0.8):
            x0 = amp * k**-2.0
            report = value_dominance_check(
                heat_model, cost, sol, pols, 0.0, x0,
                n_samples=3000, time_steps=20, seed=10,
            )
            assert all(p["ok"] for p in report["policies"])

    def test_dominance_violation_detected(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cost = CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=cfg.horizon)
        # inflate the solved values: the reported value then exceeds costs
        from dataclasses import replace

        bad_iter = replace(sol.iterate, f_values=sol.iterate.f_values + 5.0)
        bad = replace(sol, iterate=bad_iter)
        with pytest.raises(DominanceViolated):
            value_dominance_check(
                delay_model, cost, bad, [Policy.constant(2)], 0.0, X0,
                n_samples=500, time_steps=10, seed=3,
            )

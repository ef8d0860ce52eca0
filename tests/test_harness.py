import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pshjb import costs, harness
from pshjb.spectral import psd_roots
from pshjb.harness import (
    CostSpec,
    Policy,
    SimulationResult,
    _control_integrals,
    random_open_loop_policies,
    simulate_cost,
    value_dominance_check,
)
from pshjb.errors import DimensionMismatch
from pshjb.hjb import (
    HJBSolution,
    Hamiltonian,
    SolverConfig,
    ValueIterate,
    eval_value,
    h_min_batch,
    interp_fbar,
    linear_taps,
    locate_cells,
    picard_solve,
)
from conftest import (
    MINI_CFG,
    eval_c_gradient,
    nearest_multilinear,
    sample_block_gaussian,
    shipped_delay_ham,
    shipped_heat_ham,
)


X0 = np.array([0.3, -0.2])


def make_cost(ham, phi, c=0.1):
    return CostSpec(ell0=costs.constant_ell0(c), ham=ham, phi=phi)


def constant(index, time_steps=20):
    """The open-loop policy that holds control ``index`` on every step."""
    return Policy.open_loop(np.full(time_steps, index), name="constant")


# ---------------------------------------------------------------------------
# reference greedy simulation: one map_coordinates call per component and
# time slice, samples-first arrays, noise increments each from its own
# scalar covariance query and root

def per_slice_interp(axes, slices, t_axis, tau, pts):
    """Linear-in-time, multilinear-in-space interpolation of one field,
    each bracketing slice separately; ``pts`` has shape (B, N).  A time
    outside the axis takes the slice at its nearest end."""
    if tau <= t_axis[0] or tau >= t_axis[-1]:
        return nearest_multilinear(axes, slices[0 if tau <= t_axis[0] else -1], pts)
    i = int(np.searchsorted(t_axis, tau)) - 1
    theta = (tau - t_axis[i]) / (t_axis[i + 1] - t_axis[i])
    return ((1.0 - theta) * nearest_multilinear(axes, slices[i], pts)
            + theta * nearest_multilinear(axes, slices[i + 1], pts))


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
    b_ints = _control_integrals(model, t0, T, time_steps)
    u_grid, ell1 = cost.ham.control_points, cost.ham.running_cost
    z_det = np.asarray(model.proj_semigroup_apply(T - t0, x0), dtype=float)
    draws = rng.standard_normal((n_samples, time_steps, model.proj_dim))
    t_min = sol.iterate.time_grid[1]
    run_cost = np.zeros(n_samples)
    z = np.tile(z_det, (n_samples, 1))
    for j in range(time_steps):
        tau = max(T - steps[j], t_min)
        p = tau ** (-sol.gamma) * reference_fbar(sol.iterate, tau, z)
        _, idx = h_min_batch(cost.ham, p.T, argmin=True)
        run_cost += ell1[idx] * dt
        z = z + u_grid[idx] @ b_ints[j].T
        z = z + draws[:, j] @ psd_roots(increment_cov(model, T, steps, j))[0].T
    return cost.ell0_integral(t0, T) + run_cost, z


def increment_cov(model, T, steps, j):
    """Covariance of the noise of Z over step j, from one scalar query."""
    if j == steps.size - 2:
        return model.proj_cov(T - steps[j])
    return model.pushforward_cov(T - steps[j + 1], T - steps[j])


def reference_open_loop(model, cost, idx, t0, x0, n_samples, time_steps, seed):
    """Exact terminal sampling, whole population at once, mean step by step;
    returns what ``reference_greedy`` does."""
    T = cost.horizon
    rng = np.random.default_rng(seed)
    steps = np.linspace(t0, T, time_steps + 1)
    dt = steps[1] - steps[0]
    b_ints = _control_integrals(model, t0, T, time_steps)
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
    sol, cost, _ = request.getfixturevalue(f"mini_{name}_solution")
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
        coords = [lambda y, k=k: y[..., k] for k in range(model.proj_dim)]
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
                        phi=costs.constant_cost(0.0))
        assert abs(cost.ell0_integral(0.0, 1.0) - 0.5) <= 1e-9

    @pytest.mark.parametrize("times", [[1.0, 0.0], [0.0, 0.5, 0.5]])
    def test_table_ell0_rejects_unsorted_times(self, times):
        # np.interp would read [1, 0] -> [0, 1] as [0, 1, 1, 1] at 0, .25, .5, 1
        with pytest.raises(ValueError, match="strictly increasing"):
            costs.table_ell0(times, np.arange(len(times), dtype=float))

    def test_smooth_indicator_bounded_step(self):
        phi = costs.smooth_indicator_cost([1.0, 0.0], threshold=0.0,
                                          sharpness=30.0, scale=2.0)
        y = np.array([[-5.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        vals = phi(y)
        assert vals[0] <= 1e-8
        assert abs(vals[1] - 1.0) <= 1e-12
        assert abs(vals[2] - 2.0) <= 1e-8


class TestSimulateCost:
    def test_all_costs_equal_for_trivial_problem(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        cost = make_cost(ham, costs.constant_cost(2.5), c=0.0)
        res = simulate_cost(delay_model, cost, constant(0), 0.0, X0,
                            n_samples=500, seed=4)
        assert np.all(res.sample_costs == 2.5)
        assert res.std_error == 0.0

    def test_constant_control_linear_phi_mean(self, delay_model):
        ham = shipped_delay_ham()
        a = np.array([1.0, -0.7])
        phi = lambda y: y @ a
        cost = make_cost(ham, phi, c=0.0)
        idx = 3                                     # u = +0.5
        res = simulate_cost(delay_model, cost, constant(idx), 0.0, X0,
                            n_samples=40_000, time_steps=20, seed=5)
        b_ints = _control_integrals(delay_model, 0.0, 1.0, 20)
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
        for pol in (constant(0), Policy.greedy(sol)):
            with pytest.raises(ValueError, match=">= 1"):
                simulate_cost(delay_model, cost, pol, 0.0, X0, **kw)

    def test_ell0_enters_additively(self, delay_model):
        ham = shipped_delay_ham()
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        pol = constant(2)
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
        sol, cost, _ = mini_delay_solution
        res = simulate_cost(delay_model, cost, Policy.greedy(sol), 0.0, X0,
                            n_samples=2000, time_steps=20, seed=6)
        assert np.isfinite(res.mean)
        # greedy can at most match the best constant policy up to noise
        best_const = min(
            simulate_cost(delay_model, cost, constant(j), 0.0, X0,
                          2000, 20, seed=7 + j).mean
            for j in range(cost.ham.control_points.shape[0])
        )
        assert res.mean <= best_const + 0.05


class TestControlIntegralTable:
    """The policies of a round share one control-integral table."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _control_integrals.cache_clear()
        yield
        _control_integrals.cache_clear()

    def test_built_once_per_round(self, delay_model):
        cost = make_cost(shipped_delay_ham(), costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
        for idx in (0, 4):
            simulate_cost(delay_model, cost, constant(idx), 0.0, X0, 50, 20, seed=1)
        assert _control_integrals.cache_info().misses == 1
        simulate_cost(delay_model, cost, constant(0, 10), 0.0, X0, 50, 10, seed=1)
        assert _control_integrals.cache_info().misses == 2

    def test_dominance_round_builds_one_table(self, mini_delay_solution, delay_model):
        # a round of random open-loop, constant and greedy policies reads
        # one table from the cache on the function that builds it
        sol, cost, _ = mini_delay_solution
        policies = random_open_loop_policies(cost.ham, 10, 3, seed=2)
        policies += [constant(0, 10), Policy.greedy(sol)]
        value_dominance_check(delay_model, cost, sol, policies, 0.0, X0,
                              n_samples=50, time_steps=10, seed=1)
        info = _control_integrals.cache_info()
        assert (info.misses, info.hits) == (1, len(policies) - 1)

    def test_table_equals_per_node_loop(self, delay_model):
        # one proj_control call per Gauss-Legendre piece gives the table of
        # one call per node bit for bit (20 steps, split at the atom)
        steps = np.linspace(0.0, 1.0, 21)
        x, w = np.polynomial.legendre.leggauss(12)
        want = np.empty((20, delay_model.proj_dim, delay_model.control_dim))
        for j in range(20):
            lo, hi = 1.0 - steps[j + 1], 1.0 - steps[j]
            cuts = [lo] + [d for d in delay_model.control_discontinuities if lo < d < hi]
            acc = np.zeros(want.shape[1:])
            for a, b in zip(cuts, cuts[1:] + [hi]):
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                for xi, wi in zip(x, w):
                    acc += wi * half * delay_model.proj_control(mid + half * xi)
            want[j] = acc
        assert np.array_equal(_control_integrals.__wrapped__(delay_model, 0.0, 1.0, 20),
                              want)

    def test_table_is_read_only(self, delay_model):
        table = _control_integrals(delay_model, 0.0, 1.0, 20)
        with pytest.raises(ValueError):
            table[0] = 0.0

    def test_costs_match_a_table_per_call(self, mini_delay_solution, delay_model,
                                          monkeypatch):
        sol, cost, _ = mini_delay_solution
        policies = random_open_loop_policies(cost.ham, 20, 2, seed=3)
        policies.append(Policy.greedy(sol))

        def round_costs():
            return [simulate_cost(delay_model, cost, pol, 0.0, X0, 500, 20,
                                  seed=9).sample_costs for pol in policies]

        shared = round_costs()
        monkeypatch.setattr(harness, "_control_integrals",
                            _control_integrals.__wrapped__)
        for a, b in zip(shared, round_costs()):
            assert np.array_equal(a, b)


class TestGreedyNoiseBlocks:
    def test_one_block_per_step(self, mini_delay_solution, delay_model, monkeypatch):
        # 20 steps need 20 pushforward_cov increments, the last at s = 0,
        # from one stacked query (no proj_cov) and one stacked root; the
        # costs equal those of one scalar query per increment
        sol, cost, _ = mini_delay_solution
        steps = np.linspace(0.0, 1.0, 21)

        def greedy_costs():
            return simulate_cost(delay_model, cost, Policy.greedy(sol), 0.0, X0,
                                 500, 20, seed=9).sample_costs

        calls = {"pushforward_cov": 0, "proj_cov": 0, "psd_roots": 0}
        blocks = {"pushforward_cov": 0, "proj_cov": 0, "psd_roots": 0}

        def counter(name, fn):
            def counted(*args):
                calls[name] += 1
                out = fn(*args)
                mats = out[0] if name == "psd_roots" else out
                blocks[name] += mats.size // delay_model.proj_dim**2
                return out
            return counted

        for name in ("pushforward_cov", "proj_cov"):
            monkeypatch.setattr(delay_model, name,
                                counter(name, getattr(delay_model, name)))
        monkeypatch.setattr(harness, "psd_roots", counter("psd_roots", psd_roots))
        shared = greedy_costs()
        assert calls == {"pushforward_cov": 1, "proj_cov": 0, "psd_roots": 1}
        assert blocks == {"pushforward_cov": 20, "proj_cov": 0, "psd_roots": 20}
        monkeypatch.undo()

        scalar = delay_model.pushforward_cov

        def per_step(s, t):
            assert s.shape == t.shape == (20,) and s[-1] == 0.0
            return np.stack([scalar(1.0 - steps[j + 1], 1.0 - steps[j])
                             for j in range(20)])

        monkeypatch.setattr(delay_model, "pushforward_cov", per_step)
        assert np.array_equal(shared, greedy_costs())

    @pytest.mark.parametrize("t0, time_steps", [(0.0, 20), (0.35, 7)])
    def test_increments_sum_to_the_joint_law(self, solved_case, monkeypatch,
                                             t0, time_steps):
        # Cov(Z(s_j) - Z(t0)) = pushforward_cov(T - s_j, T - t0) before the
        # horizon and proj_cov(T - t0) at it: the increments of the steps up
        # to s_j add up to it
        model, cost, sol, x0 = solved_case
        T = cost.horizon
        steps = np.linspace(t0, T, time_steps + 1)
        rooted = []

        def keep(m):
            rooted.append(m)
            return psd_roots(m)

        monkeypatch.setattr(harness, "psd_roots", keep)
        simulate_cost(model, cost, Policy.greedy(sol), t0, x0, 10, time_steps, seed=1)
        (incs,) = rooted
        want = np.concatenate((model.pushforward_cov(T - steps[1:-1], T - t0),
                               [model.proj_cov(T - t0)]))
        got = np.cumsum(incs, axis=0)
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-14 * scale)


class TestSampleBlocks:
    """Blocks change no number: the generator's stream and every per-sample
    step are the same in one block or many, and no product is taken on a
    one-sample block (at 2 * BLOCK + 1 the last sample joins the block
    before it)."""

    BLOCK = 64

    @pytest.mark.parametrize("n", [1, BLOCK, 3 * BLOCK + 5, 2 * BLOCK + 1,
                                   BLOCK - 1, BLOCK + 1])
    def test_same_as_one_block(self, solved_case, monkeypatch, n):
        model, cost, sol, x0 = solved_case
        policies = [constant(1, 10), Policy.greedy(sol)]
        policies += random_open_loop_policies(cost.ham, 10, 1, seed=2)

        def results():
            return [simulate_cost(model, cost, pol, 0.0, x0, n, 10, seed=4)
                    for pol in policies]

        whole = results()                      # n is below the default block
        monkeypatch.setattr(harness, "_SIM_BLOCK", self.BLOCK)
        for a, b in zip(whole, results()):
            assert np.array_equal(a.sample_costs, b.sample_costs)
            assert (a.mean, a.std_error) == (b.mean, b.std_error)

    # The only whole-population array is the (n,) costs, 8 n bytes: the
    # standard error takes its deviations in pieces.  Terminal states or
    # terminal-cost temporaries of the whole population would add at least
    # another 16 n, more than the block allowance leaves free at this n.
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
        sol, cost, _ = mini_delay_solution
        n, steps, n_dim = self.N_MEM, 20, delay_model.proj_dim
        block_noise = 8 * harness._SIM_BLOCK * steps * n_dim
        peak = self.traced_peak(delay_model, cost, Policy.greedy(sol), n, steps)
        assert peak < 16 * n + 3 * block_noise

    @pytest.mark.parametrize("n", [2, 129, 1_000_000])
    def test_standard_error_memory_is_per_block(self, n):
        # the standard error of a population takes temporaries smaller
        # than one simulation block, and equals np.std's bit for bit
        costs = np.random.default_rng(n).standard_normal(n) - 0.43
        tracemalloc.start()
        try:
            res = SimulationResult.from_costs(costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * harness._SIM_BLOCK
        assert res.mean == costs.mean()
        assert res.std_error == costs.std(ddof=1) / np.sqrt(n)

    def test_open_loop_memory_is_per_block(self, mini_delay_solution, delay_model):
        # beyond the costs: a few blocks of terminal states and draws
        sol, cost, _ = mini_delay_solution
        n, steps, n_dim = self.N_MEM, 20, delay_model.proj_dim
        block_states = 8 * harness._SIM_BLOCK * n_dim
        pol = random_open_loop_policies(cost.ham, steps, 1, seed=1)[0]
        peak = self.traced_peak(delay_model, cost, pol, n, steps)
        assert peak < 8 * n + 4 * block_states


class TestNoiseHelper:
    """The greedy branch draws its noise one block ahead on one pooled worker
    thread per call, which has ended whenever simulate_cost returns or
    raises."""

    BLOCK = 64

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "_SIM_BLOCK", self.BLOCK)

    @staticmethod
    def policies(cost, sol):
        return [Policy.greedy(sol), constant(1, 10)]

    def test_no_thread_outlives_a_call(self, solved_case):
        model, cost, sol, x0 = solved_case
        before = threading.active_count()
        for pol in self.policies(cost, sol):
            simulate_cost(model, cost, pol, 0.0, x0, 3 * self.BLOCK + 5, 10, seed=4)
            assert threading.active_count() == before

    def test_one_thread_per_call(self, solved_case, monkeypatch):
        # three greedy blocks share one worker; open-loop blocks start none
        model, cost, sol, x0 = solved_case
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        for pol, threads in zip(self.policies(cost, sol), (1, 0)):
            started.clear()
            simulate_cost(model, cost, pol, 0.0, x0, 3 * self.BLOCK, 10, seed=4)
            assert len(started) == threads

    @staticmethod
    def stub_generator(monkeypatch, pause=0.0, fail_on=None):
        """Make numpy's generators pause ``pause`` s in each standard_normal
        call and raise MemoryError on call number ``fail_on``."""
        default_rng = np.random.default_rng

        class Stub:
            def __init__(self, seed):
                self.rng, self.calls = default_rng(seed), 0

            def standard_normal(self, *args, **kwargs):
                self.calls += 1
                if self.calls == fail_on:
                    raise MemoryError("draw failed")
                time.sleep(pause)
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Stub)

    def test_terminal_cost_error_on_block_2_of_3(self, solved_case, monkeypatch):
        # slow draws keep the worker on block 3 while the caller's block 2
        # raises; the call returns only once the worker has ended
        model, cost, sol, x0 = solved_case
        calls = []

        def phi(y):
            calls.append(len(y))
            if len(calls) == 2:
                raise FloatingPointError("phi failed")
            return cost.phi(y)

        self.stub_generator(monkeypatch, pause=0.005)
        before = threading.active_count()
        for pol in self.policies(cost, sol):
            calls.clear()
            with pytest.raises(FloatingPointError, match="phi failed"):
                simulate_cost(model, replace(cost, phi=phi), pol, 0.0, x0,
                              3 * self.BLOCK, 10, seed=4)
            assert calls == [self.BLOCK, self.BLOCK]
            assert threading.active_count() == before

    def test_generator_error_reaches_the_caller(self, solved_case, monkeypatch):
        # the second draw fails: in the worker for a greedy policy, in the
        # caller for an open-loop one
        model, cost, sol, x0 = solved_case
        self.stub_generator(monkeypatch, fail_on=2)
        before = threading.active_count()
        for pol in self.policies(cost, sol):
            with pytest.raises(MemoryError, match="draw failed"):
                simulate_cost(model, cost, pol, 0.0, x0, 3 * self.BLOCK, 10, seed=4)
            assert threading.active_count() == before

    def test_concurrent_calls_share_nothing(self, solved_case):
        # more callers than cores, each with its own worker, switching
        # threads every microsecond: a buffer shared between calls would
        # mix their noise, and every call must give its serial costs
        model, cost, sol, x0 = solved_case
        n, seeds = 3 * self.BLOCK + 5, range(6)
        pol = Policy.greedy(sol)
        serial = [simulate_cost(model, cost, pol, 0.0, x0, n, 10, seed=s).sample_costs
                  for s in seeds]
        got = {}

        def call(s):
            res = simulate_cost(model, cost, pol, 0.0, x0, n, 10, seed=s)
            got[s] = res.sample_costs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(s,)) for s in seeds]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert all(np.array_equal(got[s], serial[s]) for s in seeds)


# ---------------------------------------------------------------------------
# greedy feedback from cell winner tables

def exhaustive_controls(winners, sol, ham, tau, z):
    """The greedy indices of the walk before the tables: the interpolated
    gradient and the full argmin at every sample."""
    p = interp_fbar(sol.iterate, tau, z)
    p *= tau ** (-sol.gamma)
    return h_min_batch(ham, p, argmin=True)[1]


def exhaustive_greedy(model, cost, sol, x0, n, steps, seed):
    """(n,) greedy costs of the walk that takes every sample's control from
    :func:`exhaustive_controls`; noise, blocks and pricing as simulate_cost."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_greedy_controls", exhaustive_controls)
        return simulate_cost(model, cost, Policy.greedy(sol), 0.0, x0, n, steps,
                             seed=seed).sample_costs


def synthetic_solution(axes, fbar, gamma=0.0):
    """An HJBSolution on ``axes`` and a 6-node geometric time grid to 1,
    whose gradient slice at time s is ``fbar(s, mesh)`` (mesh from
    ``np.meshgrid(*axes, indexing="ij")``, slice shape (*grid, m))."""
    t = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 6)))
    t[-1] = 1.0
    mesh = np.meshgrid(*axes, indexing="ij")
    shape = tuple(a.size for a in axes)
    it = ValueIterate(t, axes, np.zeros((t.size,) + shape),
                      np.stack([fbar(s, mesh) for s in t[1:]]), gamma)
    return HJBSolution(it, 0.0, [], 0, 0.0, gamma, phi=None)


def scattered_points(axes, rng):
    """(N, B) points inside the box, on its nodes and beyond it."""
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    width = hi - lo
    n_dim = len(axes)
    return np.concatenate([
        rng.uniform(lo, hi, (2000, n_dim)),                     # inside
        np.stack([rng.choice(a, 300) for a in axes], axis=-1),  # on nodes
        lo - width * rng.uniform(0.01, 1.0, (100, n_dim)),      # below
        hi + width * rng.uniform(0.01, 1.0, (100, n_dim)),      # above
        rng.uniform(lo - width, hi + width, (300, n_dim)),      # mixed
    ]).T


class TestGreedyInputs:
    """A solution that does not match the model and cost is refused before
    any draw, by a greedy policy and by the dominance check; so is an
    open-loop policy whose indices do not fit the steps and controls."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch, mini_heat_solution, mini_delay_solution):
        # the solutions are solved before generators are refused
        def refuse(*args, **kwargs):
            raise AssertionError("drew from a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)

    def test_horizon(self, mini_heat_solution, heat_model):
        sol, cost, _ = mini_heat_solution
        with pytest.raises(DimensionMismatch, match="horizon"):
            simulate_cost(heat_model, replace(cost, horizon=2.0), Policy.greedy(sol),
                          0.0, HEAT_X0, 100, 20, seed=1)

    def test_space_axes(self, mini_delay_solution, delay_scalar):
        sol, cost, _ = mini_delay_solution
        with pytest.raises(DimensionMismatch, match="space axes"):
            simulate_cost(delay_scalar, cost, Policy.greedy(sol), 0.0, [0.3],
                          100, 20, seed=1)

    def test_control_dim(self, mini_heat_solution, mini_delay_solution, delay_model):
        sol, _, _ = mini_heat_solution
        _, cost, _ = mini_delay_solution
        with pytest.raises(DimensionMismatch, match="components"):
            simulate_cost(delay_model, cost, Policy.greedy(sol), 0.0, X0, 100, 20,
                          seed=1)

    def test_dominance_check_without_greedy(self, mini_heat_solution, heat_model):
        # open-loop policies alone would price a horizon-2 cost against the
        # horizon-1 value
        sol, cost, _ = mini_heat_solution
        pols = [constant(0), constant(1)]
        with pytest.raises(DimensionMismatch, match="horizon"):
            value_dominance_check(heat_model, replace(cost, horizon=2.0), sol, pols,
                                  0.0, HEAT_X0, n_samples=100, time_steps=20, seed=1)

    @pytest.mark.parametrize("bad", ["-1", "n_u", "short"])
    def test_open_loop_indices(self, mini_delay_solution, delay_model, bad):
        # -1 would wrap to the last control and n_u raise numpy's IndexError
        _, cost, _ = mini_delay_solution
        n_u = len(cost.ham.control_points)
        idx = np.zeros(20 - (bad == "short"), dtype=int)
        idx[3] = {"-1": -1, "n_u": n_u, "short": 0}[bad]
        match = "one index per step" if bad == "short" else rf"\[0, {n_u}\)"
        with pytest.raises(DimensionMismatch, match=match):
            simulate_cost(delay_model, cost, Policy.open_loop(idx), 0.0, X0, 100, 20,
                          seed=1)


class TestCellWinners:
    def test_linear_taps_are_convex(self):
        a = np.concatenate(([0.0, 1.0], np.random.default_rng(5).uniform(0.0, 1.0, 10_000)))
        offsets, w = linear_taps(a)
        w = np.array(w)
        why = ("the greedy policy's cell winner tables (harness._cell_winners) "
               "take a cell's argmin from its corners, which holds only if the "
               "interpolation taps are the cell's two nodes with nonnegative "
               "weights that sum to 1; a kernel with negative weights, such as "
               "the Keys cubic of ROADMAP items 2a and 11, voids the tables")
        assert tuple(offsets) == (0, 1), why
        assert (w >= 0.0).all() and np.abs(w.sum(axis=0) - 1.0).max() <= 2.0 ** -52, why

    # controls 0 and 1 tie at every node with x_0 < 0.25, where control 2
    # loses by 0.6 (beyond it control 2 wins by 6): their rows there are
    # -0.3 and ell1 + 2 (-0.3), the same float at ell1 = 0.3 and one ulp
    # apart at the float below it, where control 1 wins on the nodes.
    # Inside those cells the interpolated -0.3 is off by an ulp either way,
    # which decides the tie or reverses the one-ulp lead.
    TIE_AXES = (np.linspace(-4.0, 4.0, 17),) * 2

    @pytest.mark.parametrize("ell1, on_nodes", [(0.3, 0), (np.nextafter(0.3, 0.0), 1)])
    def test_ties_and_near_ties(self, delay_model, ell1, on_nodes):
        ham = Hamiltonian([[1.0], [2.0], [-1.0]], [0.0, ell1, 0.0])
        sol = synthetic_solution(
            self.TIE_AXES, lambda s, mesh: np.where(mesh[0] < 0.25, -0.3, 3.0)[..., None])
        tau = sol.iterate.time_grid[3]          # on a time node: the slice itself
        table = harness._cell_winners(sol, ham, tau).reshape(17, 17)
        # cells with a corner in the tie region are in doubt, the others
        # certain; the last node of an axis starts no cell
        x = self.TIE_AXES[0]
        want = np.where(x[:-1] < 0.25, -1, 2)
        assert np.array_equal(table[:-1, :-1], np.repeat(want[:, None], 16, axis=1))
        assert (table[-1] == -1).all() and (table[:, -1] == -1).all()
        # on the nodes an exact tie goes to the lowest index
        nodes = np.stack([g.ravel() for g in np.meshgrid(x[x < 0.25], x)])
        idx = harness._greedy_controls(table.ravel(), sol, ham, tau, nodes)
        assert (idx == on_nodes).all()
        # inside the cells both controls win somewhere, as in the
        # exhaustive walk
        rng = np.random.default_rng(3)
        pts = np.stack([rng.uniform(-4.0, 0.0, 5000), rng.uniform(-4.0, 4.0, 5000)])
        idx = harness._greedy_controls(table.ravel(), sol, ham, tau, pts)
        assert np.array_equal(idx, exhaustive_controls(None, sol, ham, tau, pts))
        assert set(np.unique(idx)) == {0, 1}
        cost = make_cost(ham, costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
        got = simulate_cost(delay_model, cost, Policy.greedy(sol), 0.0, X0, 5000, 20,
                            seed=3).sample_costs
        assert np.array_equal(got, exhaustive_greedy(delay_model, cost, sol, X0,
                                                     5000, 20, seed=3))

    @pytest.mark.parametrize("n_dim", [1, 3])
    def test_other_dimensions(self, n_dim):
        # the table walk's indices equal the exhaustive argmin at points
        # inside, on nodes and beyond the box, at times below, on, between
        # and beyond the time nodes
        if n_dim == 1:
            axes = (np.linspace(-1.0, 2.0, 13),)
            ham = shipped_delay_ham()
            fbar = lambda s, mesh: (0.2 * np.sin(2.0 * mesh[0] + s))[..., None]
        else:
            axes = (np.linspace(-1.0, 1.0, 7), np.linspace(-2.0, 1.0, 9),
                    np.linspace(-0.5, 1.5, 6))
            ham = shipped_heat_ham()
            fbar = lambda s, m: np.stack([
                0.15 * np.sin(m[0] + 0.5 * m[1] - m[2] + s),
                0.15 * np.cos(m[1] - m[0] + 0.3 * m[2] - s)], axis=-1)
        sol = synthetic_solution(axes, fbar, gamma=0.4)
        pts = scattered_points(axes, np.random.default_rng(n_dim))
        t = sol.iterate.time_grid
        read = 0
        for tau in (0.5 * t[1], t[3], 0.37, 1.0, 2.0):
            table = harness._cell_winners(sol, ham, tau)
            assert (table >= 0).any() and (table < 0).any()
            idx = harness._greedy_controls(table, sol, ham, tau, pts)
            assert np.array_equal(idx, exhaustive_controls(None, sol, ham, tau, pts))
            read += (table.take(locate_cells(axes, pts)[0]) >= 0).mean()
        assert read / 5 > 0.3               # the tables answer most points

    @pytest.mark.parametrize("block", [16_384, 160, 64])
    def test_costs_equal_the_exhaustive_walk(self, solved_case, monkeypatch, block):
        model, cost, sol, x0 = solved_case
        n = 2 * 16_384 + 1_000
        ref = exhaustive_greedy(model, cost, sol, x0, n, 20, seed=5)
        monkeypatch.setattr(harness, "_SIM_BLOCK", block)
        got = simulate_cost(model, cost, Policy.greedy(sol), 0.0, x0, n, 20, seed=5)
        assert np.array_equal(got.sample_costs, ref)

    def test_few_samples_take_the_exact_path(self, mini_heat_solution, heat_model,
                                             monkeypatch):
        # a walk that sent every sample down interp_fbar would pass every
        # bit test above: bound the points that reach it at 2 % of the
        # sample-steps (about 0.2 % on this solution)
        sol, cost, _ = mini_heat_solution
        points = []

        def counted(iterate, tau, pts):
            points.append(pts.shape[1])
            return interp_fbar(iterate, tau, pts)

        monkeypatch.setattr(harness, "interp_fbar", counted)
        n, steps = 20_000, 20
        simulate_cost(heat_model, cost, Policy.greedy(sol), 0.0, HEAT_X0, n, steps,
                      seed=7)
        assert sum(points) <= 0.02 * n * steps


class TestDominance:
    def test_trivial_control_value_matches_cost(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cost = make_cost(ham, phi)
        sol = picard_solve(delay_model, cost, SolverConfig(**MINI_CFG))
        res = simulate_cost(delay_model, cost, constant(0), 0.0, X0,
                            20_000, 20, seed=8)
        v = eval_value(sol, delay_model, 0.0, X0)
        # single admissible control: value equals the policy cost up to
        # quadrature/interpolation bias plus Monte Carlo noise
        assert abs(v - res.mean) <= 5e-3 + 3.0 * res.std_error

    def test_dominance_report(self, mini_delay_solution, delay_model):
        sol, cost, _ = mini_delay_solution
        pols = random_open_loop_policies(cost.ham, 20, 4, seed=1)
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
        sol, cost, _ = mini_delay_solution
        pols = random_open_loop_policies(cost.ham, 20, 3, seed=5)
        pols.append(Policy.greedy(sol))
        for x0 in ([0.0, 0.0], [0.5, 0.3], [-0.8, 0.4]):
            report = value_dominance_check(
                delay_model, cost, sol, pols, 0.0,
                x0,
                n_samples=3000, time_steps=20, seed=9,
            )
            assert all(p["ok"] for p in report["policies"])

    def test_dominance_three_initial_conditions_heat(
        self, mini_heat_solution, heat_model
    ):
        sol, cost, _ = mini_heat_solution
        pols = random_open_loop_policies(cost.ham, 20, 3, seed=6)
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
        sol, cost, _ = mini_delay_solution
        # inflate the solved values: the reported value then exceeds costs.
        # A failing policy is recorded, not raised, so the policy after the
        # first failing one is still simulated.
        from dataclasses import replace

        bad_iter = replace(sol.iterate, f_values=sol.iterate.f_values + 5.0)
        bad = replace(sol, iterate=bad_iter)
        report = value_dominance_check(
            delay_model, cost, bad, [constant(2, 10), constant(0, 10)], 0.0, X0,
            n_samples=500, time_steps=10, seed=3,
        )
        entries = report["policies"]
        assert [p["kind"] for p in entries] == ["open_loop", "open_loop"]
        assert [p["name"] for p in entries] == ["constant", "constant"]
        assert [p["ok"] for p in entries] == [False, False]
        assert all(report["value"] > p["mean"] + 3 * p["std_error"] for p in entries)
        assert all(p["samples"].shape == (500,) for p in entries)

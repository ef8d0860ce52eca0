import warnings
from pathlib import Path

import numpy as np
import pytest

from pshjb import costs, hjb
from pshjb.config import load_config
from pshjb.errors import (
    GridMismatch,
    InclusionViolated,
    NoContraction,
    OutOfGrid,
    TooCloseToHorizon,
)
from pshjb.hjb import (
    Hamiltonian,
    ShiftMatrices,
    SolverConfig,
    UpsilonOperator,
    clamped_share,
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
from pshjb.ou import ProjectedModel, semigroup_apply
from pshjb.spectral import build_quadrature

from conftest import MINI_CFG, nearest_multilinear, shipped_delay_ham, shipped_heat_ham


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

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_brute_force(self, m):
        # an all-zero control, one with two nonzero coordinates, duplicated
        # rows (exact ties), axis-aligned controls and coefficients +-1 (a
        # single term, the first of two terms, a later term), and +- pairs:
        # adjacent and not, |u| = 0.5, 1 and 1.5, three on component 0 and
        # two on component 1 at m = 2 (sharing |p_k|), next to look-alikes that
        # must not pair (unequal costs, two coordinates, a duplicate whose
        # partner is taken); against the minimum of ell1(u_j) + sum_k u_jk p_k
        # summed in the routine's order
        rng = np.random.default_rng(m)
        u = np.zeros((22, m))
        u[1, 0], u[2, 1] = 1.5, -0.5
        u[3, :2] = (0.75, -1.25)
        u[4] = u[3]
        u[6] = u[1]
        u[7, 0], u[8, m - 1] = 1.0, -1.0
        u[9, :2], u[10, :2] = (1.0, 0.75), (-1.0, -1.0)
        u[11, :2], u[12, :2] = (0.5, -1.0), (-0.25, 1.0)
        u[13], u[14], u[17], u[21] = -u[7], -u[2], -u[1], -u[8]
        u[15, 0], u[16, 0] = 0.5, -0.5
        u[18, 0], u[19, 0] = 0.75, -0.75
        u[20] = -u[3]
        cost = rng.integers(1, 8, len(u)) / 16.0      # dyadic: exact sums
        cost[0] = cost[5] = 0.0              # rows 0 and 5: all-zero controls
        cost[1] = cost[6] = cost[17] = cost[10] = 0.0
        cost[4] = cost[20] = cost[3]
        cost[13], cost[14], cost[16], cost[21] = cost[7], cost[2], cost[15], cost[8]
        cost[19] = cost[18] + 1.0 / 16.0
        ham = Hamiltonian(u, cost)
        role = np.zeros(len(u), dtype=int)
        role[[1, 2, 7, 8, 15]], role[[17, 14, 13, 21, 16]] = 1, 2
        assert ham.pair_role == tuple(role)
        p = rng.standard_normal((m, 3, 4))
        p[:, 0, 0] = 0.0                     # every control costs only ell1
        p[:, 0, 1] = -0.0
        p[:, 0, 2] = (-0.0, 0.0) + (-0.0,) * (m - 2)
        # exact ties across groups: rows 10 and 17 (the upper index of the
        # pair (1, 17)) at -1.5; rows 1 and 6 (a pair's lower index and its
        # unpaired duplicate) at -1.5
        p[:, 1, 0] = (1.0, 0.5) + (0.0,) * (m - 2)
        p[:, 1, 1] = (-1.0,) + (0.0,) * (m - 1)
        want = np.empty((len(u), 3, 4))
        for pos in np.ndindex(3, 4):
            for j, (uj, cj) in enumerate(zip(u, cost)):
                v = cj
                for uk, pk in zip(uj, p[(slice(None),) + pos]):
                    if uk != 0.0:
                        v = v + uk * pk
                want[(j,) + pos] = v
        want_v, want_i = want.min(axis=0), want.argmin(axis=0)
        assert (want_i[1, 0], want_i[1, 1]) == (10, 1)
        # each control's own values, bit for bit
        for j in range(len(u)):
            alone = Hamiltonian(u[j:j + 1], cost[j:j + 1])
            assert np.array_equal(h_min_batch(alone, p), want[j])
        out = np.empty((3, 4))
        value, idx = h_min_batch(ham, p, argmin=True, out=out)
        assert np.array_equal(value, want_v) and np.array_equal(idx, want_i)
        assert np.shares_memory(value, out) and np.array_equal(out, want_v)
        folded = h_min_batch(ham, p)
        assert np.array_equal(folded, want_v)
        for v in (folded, value):             # no -0.0 from the +-0.0 gradients
            assert not (np.signbit(v) & (v == 0.0)).any()
        assert idx[0, 0] == 0                # tie of the two all-zero controls
        with pytest.raises(ValueError):
            h_min_batch(ham, p, out=np.empty((4, 3)).T)
        # a -0.0 cost turns the folding off: min(+0.0, -0.0) depends on order
        cost[3] = -0.0
        assert not any(Hamiltonian(u, cost).pair_role)

    @pytest.mark.parametrize("ham, roles", [
        (shipped_heat_ham(), (0, 1, 2, 1, 2)),
        (shipped_delay_ham(), (1, 1, 0, 2, 2)),
    ])
    def test_shipped_control_pairs(self, ham, roles):
        # heat's four pushes and delay's +-0.5 and +-1 fold into pairs
        assert ham.pair_role == roles


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
        got = interp_shifted(fields, ShiftMatrices((2, len(shifts)), shape).build(stencil))
        assert got.shape == (m, 2, len(shifts)) + shape
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
        for k in range(m):
            for b in range(2):
                for i, c in enumerate(shifts):
                    ref = nearest_multilinear(axes, fields[k, b, 0], mesh + c)
                    err = np.abs(got[k, b, i] - ref.reshape(shape)).max()
                    assert err <= 1e-13

    @pytest.mark.parametrize("n", [2, 5, 21])
    def test_transposed_matrices_equal_swapped(self, n):
        # the last axis's C-order transposes against the swapped view of the
        # row-layout matrices: shifts far below the grid and beyond its end,
        # integer shifts (a = 0) and fractional ones, in a (2, 8) batch
        rng = np.random.default_rng(n)
        k = np.array([[-5 * n, -n - 1, -n, -1, 0, 1, n - 2, n - 1],
                      [n, n + 1, 4 * n, -2, 2, 0, -1, 1]])
        a = rng.uniform(0.0, 1.0, k.shape)
        a[:, ::3] = 0.0
        w, wt = ShiftMatrices(k.shape, (n, n)).build(((k, a), (k, a)))
        assert wt.shape == (2, 8, n, n) and wt.flags.c_contiguous
        assert np.array_equal(wt, np.swapaxes(w, -1, -2))

    @pytest.mark.parametrize("n", [2, 5, 21])
    def test_rebuild_over_written_matrices(self, n):
        # a build into buffers that hold another stencil's matrices zeroes
        # only that stencil's entries and equals a build into fresh zeros
        rng = np.random.default_rng(n)
        stencils = [tuple((rng.integers(-2 * n, 2 * n, (3, 4)), rng.uniform(0.0, 1.0, (3, 4)))
                          for _ in range(2)) for _ in range(3)]
        mats = ShiftMatrices((3, 4), (n, n))
        for stencil in stencils:
            fresh = ShiftMatrices((3, 4), (n, n)).build(stencil)
            for a, b in zip(mats.build(stencil), fresh):
                assert np.array_equal(a, b)


class TestClampedShare:
    def test_hand_made_stencil(self):
        # 5 nodes per axis; each shift moves node j to j + k + a
        k = np.array([[0, -1], [0, 10]])
        a = np.array([[0.0, 0.5], [0.25, 0.0]])
        w = np.array([1.0, 3.0, 2.0, 2.0])
        # 1-D: none clamped, node 0 lands at -0.5, node 4 at 4.25, all beyond
        want = (3.0 * 1 / 5 + 2.0 * 1 / 5 + 2.0 * 1.0) / 8.0
        assert clamped_share(((k, a),), w, (5,)) == pytest.approx(want, abs=1e-15)
        # 2-D: second axis shifted by 2 nodes keeps 3 of 5 inside
        k2, a2 = np.full_like(k, 2), np.zeros_like(a)
        inside = np.array([1.0, 4 / 5, 4 / 5, 0.0]) * 3 / 5
        want2 = w @ (1.0 - inside) / w.sum()
        got2 = clamped_share(((k, a), (k2, a2)), w, (5, 5))
        assert got2 == pytest.approx(want2, abs=1e-15)

    def test_matches_point_count(self):
        # against counting mesh + shift points outside [0, n - 1] per axis
        rng = np.random.default_rng(4)
        shape = (6, 4)
        axes = tuple(np.arange(n, dtype=float) for n in shape)
        shifts = np.concatenate([
            rng.uniform(-8.0, 8.0, (20, 2)),
            rng.integers(-5, 6, (10, 2)).astype(float),   # onto grid nodes
        ])
        w = rng.uniform(0.1, 1.0, len(shifts))
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
        outside = [
            np.mean(np.any((mesh + c < 0) | (mesh + c > np.array(shape) - 1), axis=1))
            for c in shifts
        ]
        want = w @ np.array(outside) / w.sum()
        got = clamped_share(shift_stencil(axes, shifts), w, shape)
        assert got == pytest.approx(want, abs=1e-14)


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
        with pytest.raises(GridMismatch, match="time grids differ"):
            weighted_distance(sol.iterate, ups.initial_iterate(), 0.0)
        with pytest.raises(GridMismatch, match="time grids differ"):
            ups.apply(sol.iterate)
        wide_cfg = SolverConfig(**{**MINI_CFG, "box_halfwidth": 10.0})
        ups = UpsilonOperator(delay_model, ham, phi, ell0, wide_cfg, gamma=0.52)
        with pytest.raises(GridMismatch, match="space grids differ"):
            ups.apply(sol.iterate)


@pytest.fixture(scope="module")
def trivial_ups(delay_model):
    ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
    phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
    ell0 = costs.constant_ell0(0.3)
    cfg = SolverConfig(**MINI_CFG)
    return UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=0.52)


@pytest.fixture(scope="module")
def mini_ups(heat_model, delay_model):
    """Mini-grid Picard maps of the shipped heat (m = 2) and delay (m = 1)
    problems."""
    cfg = SolverConfig(**MINI_CFG)
    return {
        "heat": UpsilonOperator(heat_model, shipped_heat_ham(),
                                costs.tanh_cost([0.8, -0.5], 0.0, 1.0),
                                costs.constant_ell0(0.1), cfg, gamma=0.52),
        "delay": UpsilonOperator(delay_model, shipped_delay_ham(),
                                 costs.tanh_cost([1.0, 1.0], 0.0, 1.0),
                                 costs.constant_ell0(0.1), cfg, gamma=0.52),
    }


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
            rule = build_quadrature(2, 12)
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

    def test_assembly_decomposes_each_covariance_once(self, delay_model, monkeypatch):
        # per time node one proj_cov, one proj_control and one stacked
        # pushforward_cov query (S matrices), and one eigendecomposition
        # each of proj_cov(t) and the S pushforward covariances of its
        # stencil; the extra proj_cov query sizes the box
        calls = {"proj_cov": 0, "proj_control": 0, "pushforward_cov": 0,
                 "pushforward_matrices": 0, "matrices": 0}
        for query in ("proj_cov", "proj_control", "pushforward_cov"):
            def counted(*args, query=query, fn=getattr(delay_model, query)):
                calls[query] += 1
                if query == "pushforward_cov":
                    calls["pushforward_matrices"] += np.size(args[0])
                return fn(*args)
            monkeypatch.setattr(delay_model, query, counted)
        n = delay_model.proj_dim
        eigh = np.linalg.eigh

        def counted_eigh(a):
            # N x N matrices only: the Gauss-Jacobi rule decomposes one
            # time_quad_order x time_quad_order matrix (6 != N = 2)
            if a.shape[-2:] == (n, n):
                calls["matrices"] += int(np.prod(a.shape[:-2]))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        cfg = SolverConfig(**MINI_CFG)
        assert cfg.time_quad_order != n
        UpsilonOperator(delay_model, shipped_delay_ham(),
                        costs.tanh_cost([1.0, 1.0], 0.0, 1.0),
                        costs.constant_ell0(0.1), cfg, gamma=0.52)
        n_s = 2 * cfg.time_quad_order
        assert calls == {"proj_cov": cfg.n_time + 1, "proj_control": cfg.n_time,
                         "pushforward_cov": cfg.n_time,
                         "pushforward_matrices": cfg.n_time * n_s,
                         "matrices": cfg.n_time * (n_s + 1)}

    @pytest.mark.parametrize("name", ["heat", "delay"])
    def test_blocked_apply_equals_one_block(self, name, mini_ups, monkeypatch):
        ups = mini_ups[name]
        g = ups.random_iterate(np.random.default_rng(7))
        n_s, n_q = 2 * ups.cfg.time_quad_order, ups.rule.nodes.shape[0]
        pair = 8 * ups.ham.control_dim * ups.mesh.shape[0]
        monkeypatch.setattr(hjb, "APPLY_BLOCK_BYTES", 2**62)
        assert hjb._pair_blocks(n_s, n_q, pair) == [(0, n_s, 0, n_q)]
        ref = ups.apply(g)
        # one pair per block; runs of 7 Gauss nodes (uneven last run);
        # 5 s-nodes per block (uneven last block)
        for budget, n_blocks in ((1, n_s * n_q), (7 * pair, n_s * -(-n_q // 7)),
                                 (5 * n_q * pair, -(-n_s // 5))):
            monkeypatch.setattr(hjb, "APPLY_BLOCK_BYTES", budget)
            blocks = hjb._pair_blocks(n_s, n_q, pair)
            assert len(blocks) == n_blocks
            pairs = [s * n_q + q for s0, s1, q0, q1 in blocks
                     for s in range(s0, s1) for q in range(q0, q1)]
            assert pairs == list(range(n_s * n_q))
            out = ups.apply(g)
            assert np.array_equal(out.f_values, ref.f_values)
            assert np.array_equal(out.fbar_values, ref.fbar_values)


    @pytest.mark.parametrize("name", ["heat", "delay"])
    @pytest.mark.parametrize("start", ["initial", "random"])
    def test_sweep_equals_successive_applies(self, name, start, mini_ups):
        # node-major sweeps: every iterate and its settled count bit for bit
        # those of a chain of one-iterate sweeps that carries the count;
        # node i reads gradient slices 0..i only
        ups = mini_ups[name]
        assert all(cv.i0.max() <= i and cv.i1.max() <= i
                   for i, cv in enumerate(ups.conv))
        g = (ups.initial_iterate() if start == "initial"
             else ups.random_iterate(np.random.default_rng(5)))
        chain, counts = [g], [0]
        copied = ups.copied
        for _ in range(9):
            (g_next,), count = ups.sweep(chain[-1], 1, counts[-1])
            chain.append(g_next)
            counts.append(count)
        if start == "initial":
            assert ups.copied > copied      # the chain copies settled nodes
        for n in (1, 3, 9):
            before = ups.applies
            got, count = ups.sweep(g, n)
            assert ups.applies - before == n == len(got)
            assert count == counts[n]
            for a, b in zip(got, chain[1:]):
                assert np.array_equal(a.f_values, b.f_values)
                assert np.array_equal(a.fbar_values, b.fbar_values)
        # apply is the exact map: one iterate with nothing settled
        for h in chain[-2:]:
            a, ((b,), _) = ups.apply(h), ups.sweep(h, 1, 0)
            assert np.array_equal(a.f_values, b.f_values)
            assert np.array_equal(a.fbar_values, b.fbar_values)
        with pytest.raises(ValueError):
            ups.sweep(g, 0)


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
        d = weighted_distance(sol.iterate, sol0.iterate, 0.0)
        assert d <= 2.0 * cfg.tol

    def test_uniqueness_from_random_start(self, mini_delay_solution, delay_model):
        # a genuinely different start (the zero start merges into the
        # semigroup trajectory after one step since its gradient vanishes)
        sol, ham, phi, ell0, cfg = mini_delay_solution
        ups = UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=sol.gamma)
        g = ups.random_iterate(np.random.default_rng(3))
        for _ in range(cfg.max_iter):
            g_next = ups.apply(g)
            d = weighted_distance(g_next, g, 0.0)
            g = g_next
            if d < cfg.tol:
                break
        assert d < cfg.tol
        assert weighted_distance(g, sol.iterate, 0.0) <= 2.0 * cfg.tol

    def test_diagnostics(self, mini_delay_solution, delay_model, monkeypatch):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        diag = sol.diagnostics
        assert diag["applies"] == {"picard": sol.iterations}
        assert 0.0 < diag["clamped_mass"] < 0.5
        # applies counts the iterates the sweeps computed
        lengths = []
        sweep = UpsilonOperator.sweep
        monkeypatch.setattr(
            UpsilonOperator, "sweep",
            lambda self, g, n, settled=0: lengths.append(n) or sweep(self, g, n, settled))
        pinned = SolverConfig(**{**MINI_CFG, "gamma": sol.gamma})
        sol_p = picard_solve(delay_model, ham, phi, ell0, pinned)
        assert sol_p.diagnostics["applies"] == {"picard": sum(lengths)}
        assert sum(lengths) == sol.iterations > len(lengths)
        assert sol_p.diagnostics["clamped_mass"] == diag["clamped_mass"]

    @pytest.mark.parametrize("name, one_ulp", [("heat", 24), ("delay", 55)],
                             ids=["heat", "delay"])
    def test_settled_nodes_match_exact_applies(self, name, one_ulp, request):
        # the solve copies the nodes whose inputs have settled; its iterate
        # stays within rounding of a loop of exact applies.  These are the
        # solves of bench/workloads/*.yaml; one_ulp is what a one-ulp
        # settling test copies there, as it recomputes at every iterate the
        # early nodes whose slices cycle by a couple of ulps
        sol, ham, phi, ell0, cfg = request.getfixturevalue(f"mini_{name}_solution")
        model = request.getfixturevalue(f"{name}_model")
        assert sol.diagnostics["copied_nodes"] > one_ulp
        ups = UpsilonOperator(model, ham, phi, ell0, cfg, gamma=sol.gamma)
        g = ups.initial_iterate()
        for _ in range(sol.iterations):
            g = ups.apply(g)
        assert ups.copied == 0
        assert np.abs(g.f_values - sol.iterate.f_values).max() <= 1e-15
        assert np.abs(g.fbar_values - sol.iterate.fbar_values).max() <= 1e-15

    def test_no_contraction_detected(self, delay_model):
        # enormous controls cannot contract in the sup norm
        ham = Hamiltonian(np.array([[-60.0], [60.0]]), np.zeros(2))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cfg = SolverConfig(**{**MINI_CFG, "gamma": 0.52})
        with pytest.raises(NoContraction):
            picard_solve(delay_model, ham, phi, costs.constant_ell0(0.0), cfg)

    @staticmethod
    def _three_control_setup(control, **solver):
        ham = Hamiltonian([[-control], [0.0], [control]], [0.0, 0.0, 0.0])
        cfg = SolverConfig(**{**MINI_CFG, "n_time": 8, "space_points": 9,
                              "gamma": 0.52, "max_iter": 60, **solver})
        return ham, costs.tanh_cost([1.0, 1.0], 0.0, 1.0), costs.constant_ell0(0.0), cfg

    def test_converged_means_sup_residual_below_tol(self, delay_model):
        # a slowly contracting solve: one more Picard step moves the
        # converged iterate by less than tol in the sup norm
        ham, phi, ell0, cfg = self._three_control_setup(1.5)
        sol = picard_solve(delay_model, ham, phi, ell0, cfg)
        assert sol.eta_weight == 0.0
        assert sol.residual == sol.diagnostics["residual_history"][-1] <= cfg.tol
        assert sol.diagnostics["applies"] == {"picard": sol.iterations}
        ups = UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=sol.gamma)
        assert weighted_distance(ups.apply(sol.iterate), sol.iterate, 0.0) <= cfg.tol

    def test_growth_in_sup_norm_raises(self, delay_model):
        # the sup residual hovers near 3 and grows three times in a row at
        # step 29; no weaker norm is tried.  The sweeps raise at the same
        # step, with the same message, as a loop of one-iterate sweeps that
        # carries the settled count.
        ham, phi, ell0, cfg = self._three_control_setup(3.0)
        ups = UpsilonOperator(delay_model, ham, phi, ell0, cfg, gamma=cfg.gamma)
        g, residuals, streak, settled = ups.initial_iterate(), [], 0, 0
        while streak < 3:
            (g_next,), settled = ups.sweep(g, 1, settled)
            d = weighted_distance(g_next, g, 0.0)
            streak = streak + 1 if residuals and d > residuals[-1] else 0
            residuals.append(d)
            g = g_next
        assert len(residuals) == 29
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoContraction, match="in the sup norm") as exc:
                picard_solve(delay_model, ham, phi, ell0, cfg)
        assert str(exc.value).endswith(f"residuals={residuals[-5:]}")

    def test_control_outside_covariance_image_raises(self):
        # noise only along the first coordinate, control only along the
        # second: Lambda(t) is undefined.  A set gamma skips the blow-up
        # fit, so the operator assembly is what must refuse the model.
        class Degenerate(ProjectedModel):
            proj_dim, control_dim = 2, 1

            def proj_cov(self, t):
                return np.diag([t, 0.0])

            def pushforward_cov(self, s, t):
                return np.multiply.outer(t - s, np.diag([1.0, 0.0]))

            def proj_control(self, t):
                return np.array([[0.0], [1.0]])

        ham = Hamiltonian([[-1.0], [1.0]], [0.0, 0.0])
        cfg = SolverConfig(gamma=0.3, n_time=3, space_points=5, quad_order=2,
                           time_quad_order=2)
        with pytest.raises(InclusionViolated,
                           match=r"image-inclusion residual 1\.000e\+00 > 1e-06"):
            picard_solve(Degenerate(), ham, costs.tanh_cost([1.0, 1.0], 0.0, 1.0),
                         costs.constant_ell0(0.0), cfg)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(horizon=1.0, gamma=1.5)

    def test_larger_gamma_also_solves(self, mini_delay_solution, delay_model):
        sol, ham, phi, ell0, cfg = mini_delay_solution
        cfg_hi = SolverConfig(**{**MINI_CFG, "gamma": min(sol.gamma + 0.2, 0.9)})
        sol_hi = picard_solve(delay_model, ham, phi, ell0, cfg_hi)
        assert sol_hi.residual <= cfg_hi.tol


class TestBenchmarkReference:
    """The benchmark's mini solves reproduce its stored references.

    bench/run.py checks every timed solve against bench/reference/*.npz at
    1e-12; this runs the same solves through picard_solve, so a kernel
    change that moves the numbers fails here too.  It only reads bench/.
    """

    @pytest.mark.parametrize("model, iterations", [("heat", 10), ("delay", 13)])
    def test_solve_matches_reference(self, model, iterations):
        bench = Path(__file__).resolve().parents[1] / "bench"
        with np.load(bench / "reference" / f"{model}.npz") as z:
            ref = {k: z[k] for k in z.files}
        run = load_config(str(bench / "workloads" / f"{model}.yaml"))
        sol = picard_solve(run.model, run.cost.ham, run.cost.phi, run.cost.ell0,
                           run.solver)
        it = sol.iterate
        assert sol.iterations == int(ref["iterations"]) == iterations
        # the tolerance of the benchmark's check, for grids and values alike
        assert np.abs(it.time_grid - ref["time_grid"]).max() <= 1e-12
        assert np.abs(np.stack(it.space_axes) - ref["axes"]).max() <= 1e-12
        assert np.abs(it.f_values.ravel() - ref["f"]).max() <= 1e-12
        fbar = it.fbar_values.reshape(-1, it.control_dim)
        assert np.abs(fbar - ref["fbar"]).max() <= 1e-12
        value = eval_value(sol, run.model, run.t0, run.x0)
        assert abs(value - float(ref["value"])) <= 1e-12


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
        rule = build_quadrature(2, 12)
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
        rule = build_quadrature(2, 12)
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

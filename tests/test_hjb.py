import itertools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pshjb import costs, hjb
from pshjb.config import load_config
from pshjb.errors import (
    ConfigError,
    GridMismatch,
    InclusionViolated,
    NoContraction,
    OutOfGrid,
)
from pshjb.hjb import (
    CostSpec,
    Hamiltonian,
    SolverConfig,
    UpsilonOperator,
    clamped_share,
    eval_value,
    h_min_batch,
    hinge_batch,
    interp_space,
    interp_windows,
    make_space_axes,
    pad_edges,
    picard_solve,
    settled_count,
    shift_stencil,
    sup_distance,
    window_bounds,
    window_chunks,
    window_coefficients,
    window_view,
)
from pshjb.ou import ProjectedModel, semigroup_apply
from pshjb.spectral import build_quadrature

from conftest import (
    MINI_CFG,
    TooCloseToHorizon,
    c_gradient_semigroup,
    eval_c_gradient,
    nearest_multilinear,
    random_iterate,
    shipped_delay_ham,
    shipped_heat_ham,
    weighted_distance,
)


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
        # three on component 1 at m = 2, next to look-alikes (unequal costs,
        # two coordinates, a duplicate); against the minimum of
        # ell1(u_j) + sum_k u_jk p_k summed in the routine's order
        rng = np.random.default_rng(m)
        u = np.zeros((24, m))
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
        u[22, 1], u[23, 1] = 1.0, -1.0
        cost = rng.integers(1, 8, len(u)) / 16.0      # dyadic: exact sums
        cost[0] = cost[5] = 0.0              # rows 0 and 5: all-zero controls
        cost[1] = cost[6] = cost[17] = cost[10] = 0.0
        cost[4] = cost[20] = cost[3]
        cost[2] = cost[7] = cost[8] = 3.0 / 16.0
        cost[15], cost[22] = 5.0 / 16.0, 4.0 / 16.0
        cost[13], cost[14], cost[16], cost[21] = cost[7], cost[2], cost[15], cost[8]
        cost[19], cost[23] = cost[18] + 1.0 / 16.0, cost[22]
        ham = Hamiltonian(u, cost)
        p = rng.standard_normal((m, 3, 4))
        p[:, 0, 0] = 0.0                     # every control costs only ell1
        p[:, 0, 1] = -0.0
        p[:, 0, 2] = (-0.0, 0.0) + (-0.0,) * (m - 2)
        # exact ties: rows 10 and 17 (-u_1) at -1.5; rows 1 and 6
        # (duplicates) at -1.5
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
        plain = h_min_batch(ham, p)
        assert np.array_equal(plain, want_v)
        for v in (plain, value):              # no -0.0 from the +-0.0 gradients
            assert not (np.signbit(v) & (v == 0.0)).any()
        assert idx[0, 0] == 0                # tie of the two all-zero controls
        with pytest.raises(ValueError):
            h_min_batch(ham, p, out=np.empty((4, 3)).T)
        # controls with two coordinates: no hinge form, hinge_batch is h_min_batch
        assert ham.hinge == (0.0, -1.0, (), ())
        assert np.array_equal(hinge_batch(ham, p, np.empty((3, 4))), want_v)

    @pytest.mark.parametrize("ham", [shipped_heat_ham(), shipped_delay_ham()],
                             ids=["heat", "delay"])
    def test_shipped_control_pairs(self, ham):
        # heat's four pushes and delay's +-0.5 and +-1 form groups of +-
        # controls, and both grids are radial:
        # H_min = alpha - sum_h beta_h max(r, rho_h)
        alpha, scale, ks, hinges = ham.hinge
        assert alpha == 0.05
        if ham.control_dim == 2:    # heat: one group on both components
            assert (scale, ks, hinges) == (1.0, (0, 1), ((0.05, 1.0),))
        else:                       # delay: two groups on the one component
            assert (scale, ks) == (0.5, (0,))
            assert [beta for _, beta in hinges] == [0.5, 0.5]
            np.testing.assert_allclose([rho for rho, _ in hinges], [0.025, 0.075],
                                       rtol=1e-15)

    @staticmethod
    def radial_grid(lines, zero_costs, ks, m):
        # per (c, a) of lines a +- pair on each component of ks, in an
        # interleaved order, and one all-zero control per zero cost
        rows, cost = [], []
        for c, a in lines:
            for k in ks:
                for sign in (1.0, -1.0):
                    u = np.zeros(m)
                    u[k] = sign * a
                    rows.append(u)
                    cost.append(c)
        order = np.random.default_rng(len(rows)).permutation(len(rows))
        rows, cost = [rows[j] for j in order], [cost[j] for j in order]
        for c in zero_costs:
            rows.insert(len(rows) // 2, np.zeros(m))
            cost.insert(len(cost) // 2, c)
        return Hamiltonian(np.array(rows), np.array(cost))

    @pytest.mark.parametrize("name", ["heat", "delay", "three groups", "no constant",
                                      "-0.0 rest", "duplicate push"])
    def test_hinge_form_matches_h_min(self, name):
        # alpha - scale * hinge_batch within 4 ulps of the largest term
        # max(|c|, a r) of h_min_batch, at random gradients, at r exactly
        # on each breakpoint and at +-0.0
        if name == "heat":
            ham = shipped_heat_ham()
        elif name == "delay":
            ham = shipped_delay_ham()
        elif name == "three groups":
            # |u| = 0.5, 1, 2 on both components, a dominated (0.9, 1)
            # group and a dominated all-zero cost 0.2 behind 0.05
            ham = self.radial_grid([(0.1, 0.5), (0.3, 1.0), (1.2, 2.0), (0.9, 1.0)],
                                   [0.2, 0.05], (0, 1), 2)
            assert ham.hinge.alpha == 1.2 and ham.hinge.scale == 0.5
            np.testing.assert_allclose(ham.hinge.hinges,
                                       [(0.1, 0.5), (0.4, 0.5), (0.9, 1.0)], rtol=1e-15)
        elif name == "no constant":
            # pairs on component 1 of 2 only, no all-zero control: phi
            # falls from r = 0, a first hinge at rho = 0
            ham = self.radial_grid([(0.2, 1.0), (0.0, 0.5)], [], (1,), 2)
            assert ham.hinge.ks == (1,) and ham.hinge.alpha == 0.2
            np.testing.assert_allclose(ham.hinge.hinges, [(0.0, 0.5), (0.4, 0.5)],
                                       rtol=1e-15)
        elif name == "-0.0 rest":
            # a -0.0 running cost groups and orders like +0.0
            ham = Hamiltonian([[1.0], [-1.0], [0.0]], [0.1, 0.1, -0.0])
            assert ham.hinge == (0.1, 1.0, (0,), ((0.1, 1.0),))
        else:
            # a push listed twice joins its group once
            heat = shipped_heat_ham()
            ham = Hamiltonian(np.vstack((heat.control_points, [1.0, 0.0])),
                              np.append(heat.running_cost, heat.running_cost[1]))
            assert ham.hinge == heat.hinge
        alpha, scale, ks, hinges = ham.hinge
        m = ham.control_dim
        rng = np.random.default_rng(11)
        p = rng.standard_normal((m, 6, 50)) * rng.choice([0.01, 0.1, 1.0], (6, 50))
        for h, (rho, _) in enumerate(hinges):
            p[:, h, :4] = rng.uniform(-rho, rho, (m, 4))
            p[ks[-1], h, :4] = rho, -rho, rho, -rho
        p[:, -1, :3] = 0.0
        p[:, -1, 1] = -0.0
        p[:, -1, 2] = np.where(np.arange(m) % 2, -0.0, 0.0)
        work = p.copy()
        x = hinge_batch(ham, work, np.empty(p.shape[1:]))
        # every row but r's holds |p_k|
        assert np.array_equal(np.delete(work, ks[0], axis=0),
                              np.abs(np.delete(p, ks[0], axis=0)))
        r = np.abs(p[list(ks)]).max(axis=0)
        c, a = np.abs(ham.running_cost).max(), np.abs(ham.control_points).max()
        err = np.abs(alpha - scale * x - h_min_batch(ham, p))
        assert (err <= 4 * np.spacing(np.maximum(c, a * r))).all()

    @pytest.mark.parametrize("u, cost", [
        ([[0.0], [1.0], [-1.0], [0.5]], [0.0, 0.1, 0.1, 0.1]),          # unpaired
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]], [0.1] * 4),  # two K
        ([[0.0, 0.0], [0.0, 0.0]], [0.3, 0.1]),                          # no pair
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.1] * 3),              # no -e_1
    ])
    def test_grids_without_hinge_form(self, u, cost):
        ham = Hamiltonian(u, cost)
        assert ham.hinge == (0.0, -1.0, (), ())
        p = np.random.default_rng(2).standard_normal((ham.control_dim, 7))
        assert np.array_equal(hinge_batch(ham, p, np.empty(7)), h_min_batch(ham, p))


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
    def test_matches_scattered_interpolation(self, name, request, monkeypatch):
        # N = 1 (m = 2), N = 2 (m = 2) and N = 2 (m = 1): the window kernel
        # against map_coordinates at mesh + shift, for two fields (two
        # s-nodes) with a batch of shifts each, as in the Picard map; in one
        # chunk and in chunks of one mesh row
        model = request.getfixturevalue(name)
        axes = make_space_axes(model, SolverConfig(**MINI_CFG), 1.0)
        n_dim, m = len(axes), model.control_dim
        shape = tuple(a.size for a in axes)
        step, width = axes[0][1] - axes[0][0], axes[0][-1] - axes[0][0]
        rng = np.random.default_rng(11)
        shifts = np.concatenate([
            0.3 * width * rng.uniform(-1.0, 1.0, (6, n_dim)),   # inside, partly clamped
            2.5 * width * rng.uniform(-1.0, 1.0, (4, n_dim)),   # beyond the box edge
            np.array([[2.2], [-3.1]]) * width * np.ones(n_dim),  # > one box width out
            step * rng.integers(-4, 5, (4, n_dim)),             # onto grid nodes
        ])
        batch = np.stack([shifts, shifts[::-1] * 0.5])          # (S = 2, n_q, N)
        stencil = shift_stencil(axes, batch)
        assert all((np.abs(k) == len(axes[0])).any() for k, _ in stencil)   # clamped
        assert any((a == 0.0).any() for _, a in stencil)
        lo, widths = window_bounds(stencil)
        coef = window_coefficients(stencil, lo, widths)
        pad = max(max(-o, o + w - 1) for lo_s, w_s in zip(lo, widths)
                  for o, w in zip(lo_s, w_s))
        fields = rng.standard_normal((2, m) + shape)
        padded = np.pad(fields, ((0, 0),) * 2 + ((pad, pad),) * n_dim, mode="edge")
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
        for s, budget in itertools.product(range(2), (2**62, 1)):
            monkeypatch.setattr(hjb, "WINDOW_CHUNK_BYTES", budget)
            assert coef[s].shape == (len(shifts), np.prod(widths[s]))
            got = np.empty((m, len(shifts), mesh.shape[0]))
            win = window_view(padded[s], pad, lo[s], widths[s])
            chunks = window_chunks(win, got, np.empty(win.size))
            assert len(chunks) == (1 if budget > 1 else shape[0])
            interp_windows(coef[s], chunks)
            for k in range(m):
                for i, c in enumerate(batch[s]):
                    ref = nearest_multilinear(axes, fields[s, k], mesh + c)
                    assert np.abs(got[k, i] - ref).max() <= 1e-13

    @pytest.mark.parametrize("n_dim", [1, 2, 3])
    def test_pad_edges_matches_numpy_pad(self, n_dim):
        # the pad cells of the last n_dim axes, corners included, take the
        # nearest edge value; leading axes are left alone
        rng = np.random.default_rng(n_dim)
        shape = (2, 3) + tuple(range(2, 2 + n_dim))
        for pad in (1, 3):
            fields = rng.standard_normal(shape)
            padded = np.full(shape[:2] + tuple(n + 2 * pad for n in shape[2:]), np.nan)
            padded[(slice(None),) * 2 + tuple(slice(pad, pad + n) for n in shape[2:])] = fields
            pad_edges(padded, pad, n_dim)
            edge = ((0, 0),) * 2 + ((pad, pad),) * n_dim
            assert np.array_equal(padded, np.pad(fields, edge, mode="edge"))

    def test_window_bounds(self):
        # 5 unit-spaced nodes: k is clamped to [-5, 5], which keeps every
        # clamped value; each window spans its shifts' k plus one node, and
        # each coefficient row holds 1 - a at k - lo and a at k - lo + 1
        shifts = np.array([[-49.75, 3.0, 0.5, 7.5], [1.75] * 4])[..., None]
        stencil = shift_stencil((np.arange(5.0),), shifts)
        assert stencil[0][0].tolist() == [[-5, 3, 0, 5], [1, 1, 1, 1]]
        lo, width = window_bounds(stencil)
        assert lo == [[-5], [1]] and width == [[12], [2]]
        coef = window_coefficients(stencil, lo, width)
        want = np.zeros((4, 12))
        want[0, :2], want[1, 8:10] = [0.75, 0.25], [1.0, 0.0]
        want[2, 5:7], want[3, 10:] = [0.5, 0.5], [0.5, 0.5]
        assert np.array_equal(coef[0], want)
        assert np.array_equal(coef[1], np.tile([0.25, 0.75], (4, 1)))


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
        assert sup_distance(sol.iterate, sol.iterate) == 0.0

    def test_constant_difference_unweighted(self, mini_delay_solution):
        sol, *_ = mini_delay_solution
        g = sol.iterate
        from dataclasses import replace

        g2 = replace(g, f_values=g.f_values + 0.5)
        assert abs(sup_distance(g, g2) - 0.5) <= 1e-14

    def test_weight_bounds(self, mini_delay_solution):
        # decaying weight: d_eta <= d_0 <= e^{eta T} d_eta, and eta = 0 is
        # the solver's sup norm bit for bit
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
        d0 = sup_distance(g, g2)
        d2 = weighted_distance(g, g2, 2.0)
        assert weighted_distance(g, g2, 0.0) == d0
        T = g.horizon
        assert d2 <= d0 + 1e-14
        assert d0 <= np.exp(2.0 * T) * d2 + 1e-14

    def test_grid_mismatch(self, mini_delay_solution, delay_model):
        sol, cost, _ = mini_delay_solution
        other_cfg = SolverConfig(**{**MINI_CFG, "n_time": 12})
        ups = UpsilonOperator(delay_model, cost, other_cfg, gamma=0.52)
        with pytest.raises(GridMismatch, match="time grids differ"):
            sup_distance(sol.iterate, ups.initial_iterate())
        with pytest.raises(GridMismatch, match="time grids differ"):
            ups.apply(sol.iterate)
        wide_cfg = SolverConfig(**{**MINI_CFG, "box_halfwidth": 10.0})
        ups = UpsilonOperator(delay_model, cost, wide_cfg, gamma=0.52)
        with pytest.raises(GridMismatch, match="space grids differ"):
            ups.apply(sol.iterate)


@pytest.fixture(scope="module")
def trivial_ups(delay_model):
    cost = CostSpec(costs.constant_ell0(0.3), Hamiltonian(np.zeros((1, 1)), np.zeros(1)),
                    costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
    return UpsilonOperator(delay_model, cost, SolverConfig(**MINI_CFG), gamma=0.52)


@pytest.fixture(scope="module")
def mini_ups(heat_model, delay_model):
    """Mini-grid Picard maps of the shipped heat (m = 2) and delay (m = 1)
    problems."""
    cfg = SolverConfig(**MINI_CFG)
    return {
        "heat": UpsilonOperator(heat_model, CostSpec(
            costs.constant_ell0(0.1), shipped_heat_ham(),
            costs.tanh_cost([0.8, -0.5], 0.0, 1.0)), cfg, gamma=0.52),
        "delay": UpsilonOperator(delay_model, CostSpec(
            costs.constant_ell0(0.1), shipped_delay_ham(),
            costs.tanh_cost([1.0, 1.0], 0.0, 1.0)), cfg, gamma=0.52),
    }


class TestUpsilon:
    def test_trivial_hamiltonian_is_constant_map(self, trivial_ups):
        g0 = trivial_ups.initial_iterate()
        rng = np.random.default_rng(1)
        g_rand = random_iterate(trivial_ups, rng)
        out0 = trivial_ups.apply(g0)
        out1 = trivial_ups.apply(g_rand)
        assert sup_distance(out0, out1) <= 1e-13
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
                delay_model, trivial_ups.cost.phi, t, y0, rule
            ) + 0.3 * t
            assert abs(g.f_values[(i,) + mid] - ref) <= 2e-5

    def test_zero_gradient_iterate_constant_convolution(self, delay_model):
        # fbar == 0 makes the convolution integrand the constant min(ell1)
        ham = Hamiltonian(np.array([[0.5], [-0.5]]), np.array([0.25, 0.75]))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cost = CostSpec(costs.constant_ell0(0.0), ham, phi)
        ups = UpsilonOperator(delay_model, cost, SolverConfig(**MINI_CFG), gamma=0.52)
        g = ups.zero_iterate()
        out = ups.apply(g)
        t_pos = out.time_grid[1:]
        # H_min(s^{-gamma} * 0) = min over u of ell1 = 0.25... only when the
        # linear term vanishes; with fbar = 0, H_min(0) = min(ell1)
        s_f = np.stack([node.s_f for node in ups.nodes])
        conv = out.f_values[1:] - s_f.reshape(out.f_values[1:].shape)
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
        UpsilonOperator(delay_model, CostSpec(costs.constant_ell0(0.1), shipped_delay_ham(),
                                              costs.tanh_cost([1.0, 1.0], 0.0, 1.0)),
                        cfg, gamma=0.52)
        n_s = 2 * cfg.time_quad_order
        assert calls == {"proj_cov": cfg.n_time + 1, "proj_control": cfg.n_time,
                         "pushforward_cov": cfg.n_time,
                         "pushforward_matrices": cfg.n_time * n_s,
                         "matrices": cfg.n_time * (n_s + 1)}

    @pytest.mark.parametrize("name", ["heat", "delay"])
    def test_blocked_apply_equals_one_block(self, name, mini_ups, monkeypatch):
        # the window chunks, fixed at assembly: an operator built with one
        # mesh row per chunk (the smallest budget) against one built with
        # one chunk per s-node (no budget)
        ups = mini_ups[name]
        g = random_iterate(ups, np.random.default_rng(7))
        n0 = ups.space_shape[0]
        built = {}
        for budget in (2**62, 1):
            monkeypatch.setattr(hjb, "WINDOW_CHUNK_BYTES", budget)
            assert hjb._chunk_values(8, n0) == (8 * n0 if budget > 1 else 8)
            built[budget] = UpsilonOperator(ups.model, ups.cost, ups.cfg, ups.gamma)
        chunks = {budget: sum(len(ch) for node in op.nodes for _, ch, _ in node.steps)
                  for budget, op in built.items()}
        assert chunks[1] == n0 * chunks[2**62] > chunks[2**62]
        ref, out = built[2**62].apply(g), built[1].apply(g)
        assert np.abs(out.f_values - ref.f_values).max() <= 1e-15
        assert np.abs(out.fbar_values - ref.fbar_values).max() <= 1e-15

    @pytest.mark.parametrize("name", ["heat", "delay"])
    def test_sweep_builds_no_windows(self, name, mini_ups, monkeypatch):
        # every window view and coefficient is built at assembly: a sweep
        # only runs the prebuilt chunks
        ups = mini_ups[name]
        calls = {"window_view": 0, "window_coefficients": 0}
        for fn in calls:
            def counted(*args, fn=fn, orig=getattr(hjb, fn)):
                calls[fn] += 1
                return orig(*args)
            monkeypatch.setattr(hjb, fn, counted)
        ups.sweep(ups.initial_iterate(), 0)
        assert calls == {"window_view": 0, "window_coefficients": 0}

    @pytest.mark.parametrize("name", ["heat", "delay", "trivial"])
    def test_sweep_takes_hinge_form(self, name, mini_ups, trivial_ups, monkeypatch):
        # the shipped grids are radial: a sweep takes H_min in hinge form
        # and calls no h_min_batch; a grid that is not radial (one all-zero
        # control) takes one h_min_batch call per s-node
        ups = trivial_ups if name == "trivial" else mini_ups[name]
        calls = []
        minimum = hjb.h_min_batch
        monkeypatch.setattr(hjb, "h_min_batch",
                            lambda *a, **k: calls.append(1) or minimum(*a, **k))
        ups.sweep(ups.initial_iterate(), 0)
        steps = sum(len(node.steps) for node in ups.nodes)
        assert len(calls) == (steps if name == "trivial" else 0)

    @pytest.mark.parametrize("name", ["heat", "delay"])
    def test_apply_matches_separate_sums(self, name, mini_ups):
        # the one-gemm sums of the hinge form against h_min_batch rows and
        # the two quadrature sums, f and gradient, taken separately
        ups = mini_ups[name]
        g = random_iterate(ups, np.random.default_rng(3))
        out = ups.apply(g)
        ham = ups.cost.ham
        for i, node in enumerate(ups.nodes):
            ups._node(i, g.fbar_values)
            # H_min per (s-node, Gauss node) from the node's hinge sums
            hvals = ham.hinge.alpha - ham.hinge.scale * ups._hvals
            for (coef, chunks, _), rows in zip(node.steps, np.split(hvals, len(node.steps))):
                interp_windows(coef, chunks)     # the s-node's gradients again
                assert np.abs(h_min_batch(ham, ups._block) - rows).max() <= 1e-14
            f = node.s_f + node.weights[:, 0] @ hvals
            grad = node.t**ups.gamma * (node.s_grad + hvals.T @ node.weights[:, 1:])
            assert np.abs(out.f_values[i + 1].ravel() - f).max() <= 1e-14
            assert np.abs(out.fbar_values[i].reshape(grad.shape) - grad).max() <= 1e-14

    def test_window_coefficients_counted_before_built(self, delay_model, monkeypatch):
        # the sizes alone pass the sweep budget, the windows do not: the
        # assembly checks every node's windows once and refuses the problem
        # before it builds any coefficient
        cost = CostSpec(costs.constant_ell0(0.1), shipped_delay_ham(),
                        costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
        cfg = SolverConfig(**MINI_CFG)
        calls = []
        for fn in ("_check_problem_size", "window_coefficients"):
            def logged(*args, fn=fn, orig=getattr(hjb, fn)):
                calls.append(fn)
                return orig(*args)
            monkeypatch.setattr(hjb, fn, logged)
        ups = UpsilonOperator(delay_model, cost, cfg, gamma=0.52)
        assert calls == ["_check_problem_size"] + ["window_coefficients"] * cfg.n_time
        coef = [c for node in ups.nodes for c, _, _ in node.steps]
        full = hjb._sweep_bytes(cfg, 2, 1, ups.pad, max(c.shape[1] for c in coef),
                                sum(c.size for c in coef))
        assert full > hjb._sweep_bytes(cfg, 2, 1)
        monkeypatch.setattr(hjb, "_SWEEP_BUDGET_BYTES", full - 1)
        hjb._check_problem_size(cfg, 2, 1)
        calls.clear()
        with pytest.raises(ConfigError, match="per Picard sweep"):
            UpsilonOperator(delay_model, cost, cfg, gamma=0.52)
        assert calls == ["_check_problem_size"]

    @pytest.mark.parametrize("name", ["heat", "delay"])
    @pytest.mark.parametrize("start", ["initial", "random"])
    def test_sweep_equals_successive_applies(self, name, start, mini_ups):
        # node i reads gradient slices 0..i only; a chain of sweeps that
        # carries the settled count copies the nodes below each count, and
        # a count never falls; apply is the exact map, a sweep with
        # nothing settled
        ups = mini_ups[name]
        assert all(node.i0.max() <= i and node.i1.max() <= i
                   for i, node in enumerate(ups.nodes))
        g = (ups.initial_iterate() if start == "initial"
             else random_iterate(ups, np.random.default_rng(5)))
        chain, counts = [g], [0]
        for _ in range(9):
            chain.append(ups.sweep(chain[-1], counts[-1]))
            counts.append(settled_count(chain[-1], chain[-2]))
        for src, out, count in zip(chain, chain[1:], counts):
            assert np.array_equal(out.f_values[:count + 1], src.f_values[:count + 1])
            assert np.array_equal(out.fbar_values[:count], src.fbar_values[:count])
        assert counts == sorted(counts)
        if start == "initial":
            assert sum(counts[:-1]) > 0     # the chain copies settled nodes
        for h in chain[-2:]:
            a, b = ups.apply(h), ups.sweep(h, 0)
            assert np.array_equal(a.f_values, b.f_values)
            assert np.array_equal(a.fbar_values, b.fbar_values)


class TestPicard:
    def test_trivial_converges_in_one_iteration(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        sol = picard_solve(delay_model, CostSpec(costs.constant_ell0(0.0), ham, phi),
                           SolverConfig(**MINI_CFG))
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
        sol, cost, cfg = mini_delay_solution
        sol0 = picard_solve(delay_model, cost, cfg, initial="zero")
        d = sup_distance(sol.iterate, sol0.iterate)
        assert d <= 2.0 * cfg.tol
        # a misspelt start is an error, not the zero start
        with pytest.raises(ValueError, match="initial"):
            picard_solve(delay_model, cost, cfg, initial="semigroupp")

    def test_uniqueness_from_random_start(self, mini_delay_solution, delay_model):
        # a genuinely different start (the zero start merges into the
        # semigroup trajectory after one step since its gradient vanishes)
        sol, cost, cfg = mini_delay_solution
        ups = UpsilonOperator(delay_model, cost, cfg, gamma=sol.gamma)
        g = random_iterate(ups, np.random.default_rng(3))
        for _ in range(cfg.max_iter):
            g_next = ups.apply(g)
            d = sup_distance(g_next, g)
            g = g_next
            if d < cfg.tol:
                break
        assert d < cfg.tol
        assert sup_distance(g, sol.iterate) <= 2.0 * cfg.tol

    def test_diagnostics(self, mini_delay_solution, delay_model):
        sol, cost, _ = mini_delay_solution
        diag = sol.diagnostics
        assert 0.0 < diag["clamped_mass"] < 0.5
        pinned = SolverConfig(**{**MINI_CFG, "gamma": sol.gamma})
        sol_p = picard_solve(delay_model, cost, pinned)
        assert sol_p.diagnostics["clamped_mass"] == diag["clamped_mass"]

    @pytest.mark.parametrize("name, one_ulp", [("heat", 24), ("delay", 55)],
                             ids=["heat", "delay"])
    def test_settled_nodes_match_exact_applies(self, name, one_ulp, request):
        # the solve copies the nodes whose inputs have settled; its iterate
        # stays within rounding of a loop of exact applies.  These are the
        # solves of bench/workloads/*.yaml; one_ulp is what a one-ulp
        # settling test copies there, as it recomputes at every iterate the
        # early nodes whose slices cycle by a couple of ulps
        sol, cost, cfg = request.getfixturevalue(f"mini_{name}_solution")
        model = request.getfixturevalue(f"{name}_model")
        assert sol.diagnostics["copied_nodes"] > one_ulp
        ups = UpsilonOperator(model, cost, cfg, gamma=sol.gamma)
        # the solve's count is the sum of the settled counts its sweeps
        # were given
        g = h = ups.initial_iterate()
        settled = copied = 0
        for _ in range(sol.iterations):
            g = ups.apply(g)
            h_next = ups.sweep(h, settled)
            copied, settled, h = copied + settled, settled_count(h_next, h), h_next
        assert copied == sol.diagnostics["copied_nodes"]
        assert np.array_equal(h.f_values, sol.iterate.f_values)
        assert np.array_equal(h.fbar_values, sol.iterate.fbar_values)
        assert np.abs(g.f_values - sol.iterate.f_values).max() <= 1e-15
        assert np.abs(g.fbar_values - sol.iterate.fbar_values).max() <= 1e-15

    @staticmethod
    def _settled_loop(g_next, g):
        """The settled count, node by node: the leading run of slices that
        moved by at most four ulps of the largest |fbar| so far."""
        count, top = 0, 0.0
        for new, old in zip(g_next.fbar_values, g.fbar_values):
            top = max(top, float(np.abs(new).max()))
            if np.abs(new - old).max() > 4 * np.spacing(top):
                break
            count += 1
        return count

    @pytest.mark.parametrize("name", ["heat", "delay"])
    def test_settled_count_matches_node_loop(self, name, mini_ups):
        ups = mini_ups[name]
        g = random_iterate(ups, np.random.default_rng(11))
        n_t = g.fbar_values.shape[0]
        # slice 2 scaled far below slice 0, so that ulps of the largest
        # |fbar| over slices 0..2 are not ulps of slice 2's own
        flat = g.fbar_values.reshape(n_t, -1).copy()
        flat[2] *= 2.0**-6
        g = replace(g, fbar_values=flat.reshape(g.fbar_values.shape))
        top = np.maximum.accumulate(np.abs(flat).max(axis=1))
        assert np.spacing(np.abs(flat[2]).max()) < np.spacing(top[2]) / 2
        # bump the smallest |fbar| of a slice by whole ulps of its top, an
        # exact move that leaves every slice's max as it is: 3 ulps at nodes
        # 2 and 9 and 4 ulps at node 4 pass, 5 ulps at node 6 stop the count
        bumped = flat.copy()
        for i, ulps in ((2, 3), (4, 4), (6, 5), (9, 3)):
            j = np.abs(flat[i]).argmin()
            bumped[i, j] += ulps * np.spacing(top[i])
            assert abs(bumped[i, j] - flat[i, j]) == ulps * np.spacing(top[i])
        g_next = replace(g, fbar_values=bumped.reshape(g.fbar_values.shape))
        assert settled_count(g_next, g) == self._settled_loop(g_next, g) == 6
        assert settled_count(g, g) == self._settled_loop(g, g) == n_t
        # and along a chain of sweeps from the semigroup start
        chain, settled = [ups.initial_iterate()], 0
        for _ in range(6):
            chain.append(ups.sweep(chain[-1], settled))
            settled = settled_count(chain[-1], chain[-2])
            assert settled == self._settled_loop(chain[-1], chain[-2])
        assert 0 < settled < n_t

    def test_no_contraction_detected(self, delay_model):
        # enormous controls cannot contract in the sup norm
        ham = Hamiltonian(np.array([[-60.0], [60.0]]), np.zeros(2))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cfg = SolverConfig(**{**MINI_CFG, "gamma": 0.52})
        with pytest.raises(NoContraction):
            picard_solve(delay_model, CostSpec(costs.constant_ell0(0.0), ham, phi), cfg)

    @staticmethod
    def _three_control_setup(control, **solver):
        ham = Hamiltonian([[-control], [0.0], [control]], [0.0, 0.0, 0.0])
        cfg = SolverConfig(**{**MINI_CFG, "n_time": 8, "space_points": 9,
                              "gamma": 0.52, "max_iter": 60, **solver})
        return CostSpec(costs.constant_ell0(0.0), ham,
                        costs.tanh_cost([1.0, 1.0], 0.0, 1.0)), cfg

    def test_converged_means_sup_residual_below_tol(self, delay_model):
        # a slowly contracting solve: one more Picard step moves the
        # converged iterate by less than tol in the sup norm
        cost, cfg = self._three_control_setup(1.5)
        sol = picard_solve(delay_model, cost, cfg)
        assert sol.eta_weight == 0.0
        assert sol.residual == sol.diagnostics["residual_history"][-1] <= cfg.tol
        ups = UpsilonOperator(delay_model, cost, cfg, gamma=sol.gamma)
        assert sup_distance(ups.apply(sol.iterate), sol.iterate) <= cfg.tol

    def test_growth_in_sup_norm_raises(self, delay_model, monkeypatch):
        # the sup residual hovers near 3 and grows three times in a row at
        # step 29; no weaker norm is tried.  The solve raises at the same
        # step, with the same message, as a loop of sweeps that carries the
        # settled count, and computes no iterate past it.
        cost, cfg = self._three_control_setup(3.0)
        ups = UpsilonOperator(delay_model, cost, cfg, gamma=cfg.gamma)
        g, residuals, streak, settled = ups.initial_iterate(), [], 0, 0
        while streak < 3:
            g_next = ups.sweep(g, settled)
            settled = settled_count(g_next, g)
            d = sup_distance(g_next, g)
            streak = streak + 1 if residuals and d > residuals[-1] else 0
            residuals.append(d)
            g = g_next
        assert len(residuals) == 29
        solving = []
        sweep = UpsilonOperator.sweep
        monkeypatch.setattr(
            UpsilonOperator, "sweep",
            lambda self, g, settled: solving.append(self) or sweep(self, g, settled))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoContraction, match="in the sup norm") as exc:
                picard_solve(delay_model, cost, cfg)
        assert str(exc.value).endswith(f"residuals={residuals[-5:]}")
        assert len(solving) == len(residuals)

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
            picard_solve(Degenerate(), CostSpec(costs.constant_ell0(0.0), ham,
                                                costs.tanh_cost([1.0, 1.0], 0.0, 1.0)), cfg)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.5)

    def test_larger_gamma_also_solves(self, mini_delay_solution, delay_model):
        sol, cost, _ = mini_delay_solution
        cfg_hi = SolverConfig(**{**MINI_CFG, "gamma": min(sol.gamma + 0.2, 0.9)})
        sol_hi = picard_solve(delay_model, cost, cfg_hi)
        assert sol_hi.residual <= cfg_hi.tol


class TestTimeCost:
    """ell0 is a function of calendar time: at time-to-go t the solve
    charges int_{T-t}^T ell0(s) ds, as the simulation does from a start at
    T - t."""

    def test_initial_iterate_integrates_calendar_time(self, trivial_ups, delay_model):
        # ell0(s) = 2 s and T = 1: int_{1-t}^1 2 s ds = 2 t - t^2, where
        # int_0^t would give t^2; trivial_ups charges the constant 0.3
        ramp = replace(trivial_ups.cost, ell0=costs.table_ell0([0.0, 1.0], [0.0, 2.0]))
        ups = UpsilonOperator(delay_model, ramp, trivial_ups.cfg, trivial_ups.gamma)
        t = ups.time_grid[1:]
        part = (ups.initial_iterate().f_values[1:]
                - trivial_ups.initial_iterate().f_values[1:]).reshape(t.size, -1)
        assert np.abs(part - (2 * t - t**2 - 0.3 * t)[:, None]).max() <= 1e-13

    def test_value_difference_at_a_node(self, mini_delay_solution, delay_model):
        # ell0(s) = 2 - 2 s against the constant 0.1 of the same problem:
        # from t0 = T - t_k the values differ by int_{t0}^1 (1.9 - 2 s) ds
        sol, cost, cfg = mini_delay_solution
        table = replace(cost, ell0=costs.table_ell0([0.0, 1.0], [2.0, 0.0]))
        sol_table = picard_solve(delay_model, table, cfg)
        x = np.array([0.3, -0.2])
        for k in (3, 12, 20):
            t0 = cost.horizon - sol.iterate.time_grid[k]
            exact = (1.0 - t0) ** 2 - 0.1 * (1.0 - t0)
            diff = (eval_value(sol_table, delay_model, t0, x)
                    - eval_value(sol, delay_model, t0, x))
            assert abs(diff - exact) <= 1e-9


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
        sol = picard_solve(run.model, run.cost, run.solver)
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
        sol, cost, _ = mini_delay_solution
        for x0 in ([0.0, 0.0], [0.4, -0.2], [1.5, 0.7]):
            assert eval_value(sol, delay_model, cost.horizon, x0) == float(
                cost.phi(np.asarray(x0))
            )

    def test_trivial_solution_matches_semigroup(self, delay_model):
        # states chosen to project exactly onto grid nodes at the queried
        # backward times, so the comparison isolates the quadrature chain
        # from grid-resolution error
        from scipy.linalg import expm

        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        c = 0.25
        cfg = SolverConfig(**MINI_CFG)
        sol = picard_solve(delay_model, CostSpec(costs.constant_ell0(c), ham, phi), cfg)
        rule = build_quadrature(2, 12)
        axes = sol.iterate.space_axes
        for i, (j1, j2) in ((2, (10, 12)), (8, (9, 10)), (15, (11, 9))):
            tau = sol.iterate.time_grid[1:][i]
            y_node = np.array([axes[0][j1], axes[1][j2]])
            x = expm(-tau * delay_model.cfg.a0) @ y_node
            ref = semigroup_apply(delay_model, phi, tau, y_node, rule) + c * tau
            got = eval_value(sol, delay_model, 1.0 - tau, x)
            assert abs(got - ref) <= 1e-4

    def test_monotone_in_terminal_cost(self, delay_model):
        ham = shipped_delay_ham()
        ell0 = costs.constant_ell0(0.0)
        cfg = SolverConfig(**MINI_CFG)
        phi_lo = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        phi_hi = costs.tanh_cost([1.0, 1.0], 2.0, 1.0)   # pointwise larger
        sol_lo = picard_solve(delay_model, CostSpec(ell0, ham, phi_lo), cfg)
        sol_hi = picard_solve(delay_model, CostSpec(ell0, ham, phi_hi), cfg)
        for x in ([0.0, 0.0], [0.5, 0.2], [-0.6, 0.4]):
            for t in (0.0, 0.4, 0.9):
                assert eval_value(sol_lo, delay_model, t, x) <= eval_value(
                    sol_hi, delay_model, t, x
                ) + 1e-6

    def test_gradient_matches_semigroup_for_trivial(self, delay_model):
        from scipy.linalg import expm

        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.tanh_cost([1.0, 1.0], 0.0, 1.0)
        cfg = SolverConfig(**{**MINI_CFG, "quad_order": 8})
        sol = picard_solve(delay_model, CostSpec(costs.constant_ell0(0.0), ham, phi), cfg)
        rule = build_quadrature(2, 12)
        axes = sol.iterate.space_axes
        for i, (j1, j2) in ((5, (10, 11)), (12, (9, 10))):
            tau = sol.iterate.time_grid[1:][i]
            y_node = np.array([axes[0][j1], axes[1][j2]])
            x = expm(-tau * delay_model.cfg.a0) @ y_node
            ref = c_gradient_semigroup(delay_model, phi, tau, y_node, rule)
            got = eval_c_gradient(sol, delay_model, 1.0 - tau, x)
            np.testing.assert_allclose(got, ref, atol=2e-4)

    def test_constant_phi_zero_gradient(self, delay_model):
        ham = Hamiltonian(np.zeros((1, 1)), np.zeros(1))
        phi = costs.constant_cost(2.0)
        sol = picard_solve(delay_model, CostSpec(costs.constant_ell0(0.0), ham, phi),
                           SolverConfig(**MINI_CFG))
        g = eval_c_gradient(sol, delay_model, 0.3, np.array([0.1, 0.1]))
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
        sol, *_ = mini_delay_solution
        x = np.array([50.0, 50.0])     # far outside the box
        with pytest.raises(OutOfGrid):
            eval_value(sol, delay_model, 0.5, x)
        near = np.array([0.1, 0.1])
        with pytest.raises(TooCloseToHorizon):
            eval_c_gradient(sol, delay_model, sol.iterate.horizon - 1e-7, near)
        with pytest.raises(OutOfGrid):
            eval_value(sol, delay_model, 2.0, near)

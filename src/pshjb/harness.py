"""Policy simulation and value-dominance cross checks.

Policies are open-loop (a control index per step; a constant policy holds
one) or greedy.  Because the running cost never touches the state,
open-loop policies admit exact terminal sampling: the projected terminal
state is Gaussian around the deterministic drift-plus-control mean, so no
path discretization enters and their simulated costs are unbiased up to
the control-response quadrature.

Greedy (feedback) policies are simulated on a step grid.  The tracked
quantity is Z(s) = P e^{(T-s)A} X(s), which is exactly what the solved
gradient consumes and which reaches P X(T) at the horizon.  Its noise is
the Gaussian martingale int_{t0}^{s} P e^{(T-r)A} G dW(r), whose integrand
is deterministic, so its increments over the steps are independent: over
[s_j, s_{j+1}] the increment has covariance pushforward_cov(T - s_{j+1},
T - s_j), which on the last step, ending at the horizon, is its s = 0
member proj_cov(T - s_j).  Each step adds its increment through that
covariance's own N x N root (the random-walk construction), so the path
law is exact and the only approximation is that the control is held
constant between steps (itself an admissible policy, so dominance bounds
remain valid).

Both branches read the steps' control integrals from one table per
(model, t0, horizon, time_steps), cached on the function that builds it,
and run in the blocks of :func:`_spans`: _SIM_BLOCK samples each, a
one-sample tail joining the block before it, drawn in turn from one
generator.  The generator yields the same stream whether rows are drawn in
one call or in consecutive ones, no product is taken on one sample (numpy
multiplies a one-sample slab by another path, whose last bits differ)
unless n_samples is 1, and every step is elementwise per sample, so the
costs equal those of one whole-population pass bit for bit.  Each block's
terminal states are priced by the terminal cost and dropped, so memory is
a few blocks' worth, whatever the number of samples: only the (n_samples,)
costs are a whole-population array.

A greedy block's noise does not depend on its states, so each call draws
it one block ahead on one pooled worker thread: while the calling thread
walks the steps of block k, the worker draws block k + 1, forms its step
increments and writes them into the other of two noise buffers that the
call allocates once.  The worker touches only numpy, the generator and
those buffers; an error in it is raised in the caller, and it has ended
whenever the call returns or raises.  The costs are those of a serial
pass, bit for bit.  Open-loop blocks draw in the calling thread: there the
noise is most of a block's work, and a worker measured slower.

The greedy control is read from per-step cell winner tables
(:func:`_cell_winners`), built once per call for each step's backward
time from the gradient slice that :func:`interp_fbar` reads: at every
mesh node each control's Hamiltonian row, the winner (lowest index on
ties) and its gap to the runner-up.  A cell is certain when its 2^N
corners share the winner and each corner's gap exceeds a rounding bound
delta = 2^-36 M, M bounding every row.  The linear taps' weights are
convex, so a row difference's least value over a cell lies at a corner,
and the argmin anywhere in a certain cell is its winner.  A step locates
each sample's cell with :func:`locate_cells`, the helper
:func:`interp_space` reads its cells from, takes the index from the table,
and runs :func:`interp_fbar` and the :func:`h_min_batch` argmin only on
the samples in uncertain cells (0.2 % of sample-steps on the heat bench
config, 15 % on delay's).  Both work elementwise per sample, so the
indices, and the costs, are those of a walk over all samples, bit for bit.
A kernel with negative weights (a Keys cubic) would void the tables.

The greedy loop keeps its arrays components first: the state is (N, B)
and the gradient (m, B) for B samples, so the cell lookup, the scattered
interpolation and the per-step updates read contiguous rows.  Each step's
control response is an (N, n_u) table gathered by the argmin index.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .hjb import (
    CostSpec,
    HJBSolution,
    Hamiltonian,
    blend,
    eval_value,
    h_min_batch,
    interp_fbar,
    locate_cells,
    time_taps,
)
from .ou import ProjectedModel
from .spectral import psd_roots

# Samples per block of simulate_cost.  A greedy block keeps its per-step
# arrays (state, gradient, argmin scratch: about 1.3 MB at
# N = m = 2) in a core's L2 while all its steps run.  Greedy heat policy
# at 200 000 samples and 20 steps, on 2 MiB-L2 cores: 0.44 s with blocks of
# 16 384 to 65 536, 0.50 s with 8 192 (per-call overhead), 0.64 s in one
# whole-population pass.  The greedy noise worker draws a sixteenth of a
# block at a time (1 024 samples: 330 KB of draws at 20 steps and N = 2,
# which stay in cache until they are multiplied) into one of two
# block-sized noise buffers (5.2 MB each there): the block being walked and
# the next.
_SIM_BLOCK = 16_384


@dataclass(frozen=True)
class Policy:
    """Admissible control policy emitting indices into the control grid.

    ``open_loop``: an index per step of the simulation grid; ``greedy``: the
    Hamiltonian argmin at the current control-gradient of a solved value.
    """

    kind: str
    indices: np.ndarray | None = None
    solution: HJBSolution | None = None
    name: str = ""

    @classmethod
    def open_loop(cls, indices, name: str = "open_loop") -> "Policy":
        return cls(kind="open_loop", indices=np.asarray(indices, dtype=int), name=name)

    @classmethod
    def greedy(cls, solution: HJBSolution) -> "Policy":
        return cls(kind="greedy", solution=solution, name="greedy")


@dataclass(frozen=True)
class SimulationResult:
    sample_costs: np.ndarray
    mean: float
    std_error: float

    @classmethod
    def from_costs(cls, costs: np.ndarray) -> "SimulationResult":
        n = costs.size
        mean, se = costs.mean(), 0.0
        if n > 1:
            se = float(np.sqrt(_squared_deviations(costs, mean) / (n - 1)) / np.sqrt(n))
        return cls(costs, float(mean), se)


def _squared_deviations(x: np.ndarray, mean) -> float:
    """sum (x - mean)^2 of a 1-D array as ``np.std`` sums it, bit for bit,
    with temporaries of at most half a _SIM_BLOCK instead of one of the
    whole array: the halves split where numpy's pairwise summation splits
    (at a multiple of 8 below the middle), and a piece is summed whole once
    it holds at most max(_SIM_BLOCK // 2, 128) values, 128 being the block
    that numpy sums unrolled, without splitting."""
    n = x.size
    if n <= max(_SIM_BLOCK // 2, 128):
        d = x - mean
        return np.add.reduce(np.multiply(d, d, out=d))
    half = n // 2 - n // 2 % 8
    return _squared_deviations(x[:half], mean) + _squared_deviations(x[half:], mean)


@lru_cache(maxsize=8)
def _control_integrals(
    model: ProjectedModel, t0: float, horizon: float, time_steps: int
) -> np.ndarray:
    """Read-only table of B_j = int_{s_j}^{s_{j+1}} proj_control(T - r) dr
    on the uniform simulation grid s = linspace(t0, horizon, time_steps + 1).

    Composite 12-point Gauss-Legendre split at the control-response
    discontinuities (delay-atom activations), one ``proj_control`` call for
    the nodes of each piece; nodes are interior so proj_control is never
    evaluated at exactly 0.  Every policy of a round shares the table, built
    once per argument tuple (models are immutable, so identity keys are
    sound); the cache keeps its last 8 models alive.
    """
    steps = np.linspace(t0, horizon, time_steps + 1)
    x, w = np.polynomial.legendre.leggauss(12)
    out = np.empty((time_steps, model.proj_dim, model.control_dim))
    for j in range(time_steps):
        lo, hi = horizon - steps[j + 1], horizon - steps[j]
        cuts = [lo] + [d for d in model.control_discontinuities if lo < d < hi] + [hi]
        acc = np.zeros((model.proj_dim, model.control_dim))
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            if half <= 0:
                continue
            for wi, pc in zip(w, model.proj_control(mid + half * x)):
                acc += wi * half * pc
        out[j] = acc
    out.flags.writeable = False
    return out


def _spans(n: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) of the consecutive spans that cover range(n): spans of
    ``size`` items, the last one of 2 to size + 1 (a one-item tail joins
    the span before it), or one span of one item when n is 1.  numpy
    multiplies a one-sample slab by another path, whose last bits differ,
    so no product is taken on one sample unless there is only one."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n]))


def _check_solution(sol: HJBSolution | None, model: ProjectedModel, cost: CostSpec) -> None:
    """Raise :class:`DimensionMismatch` unless ``sol`` was solved on the
    horizon of ``cost``, the projected dimension of ``model`` and the
    control dimension of ``cost``'s control grid."""
    if sol is None:
        raise ValueError("greedy policy needs an HJB solution")
    it = sol.iterate
    if it.horizon != cost.horizon:
        raise DimensionMismatch(
            f"the solution's horizon {it.horizon:g} is not the "
            f"cost's {cost.horizon:g}")
    if len(it.space_axes) != model.proj_dim:
        raise DimensionMismatch(
            f"the solution has {len(it.space_axes)} space axes, "
            f"the model's projection {model.proj_dim}")
    if it.control_dim != cost.ham.control_dim:
        raise DimensionMismatch(
            f"the solution's gradient has {it.control_dim} "
            f"components, the cost's controls {cost.ham.control_dim}")


def _cell_winners(sol: HJBSolution, ham: Hamiltonian, tau: float) -> np.ndarray:
    """Greedy control of each mesh cell at backward time ``tau`` where it is
    certain, indexed by the flat mesh index of the cell's first node (as
    :func:`locate_cells` gives it); -1 where it is in doubt and on the last
    node of an axis, which starts no cell.

    The table reads the gradient slice that :func:`interp_fbar` blends,
    times s = tau^-gamma, and holds at every node each control's row
    ell1(u_j) + u_j . p, the winner (lowest index on ties) and its gap to
    the runner-up.  A cell is certain when its 2^N corners share the winner
    and every corner's gap exceeds delta.

    Why a certain cell's argmin is the winner's, bit for bit: for the
    fractions a_d that :func:`locate_cells` gives a point, the exact
    products of the :func:`linear_taps` weights are nonnegative and sum to
    1, so every exact row at the point is the same convex combination of
    its corner values, and so is row_l - row_j; its least value over the
    cell lies at a corner.  Every row, exact or computed, is at most
    M = max |ell1| + max_j sum_k |u_jk| s max |fbar| in size; call 2^-53 M
    (one unit roundoff of M) a unit.  The table's corner rows lie within
    m + 2 units of exact, and the rows that :func:`h_min_batch` forms from
    an interpolated gradient within 2^(N+2) + 4m.  With
    delta = 2^-36 M = 2^17 units, a corner gap above delta leaves the
    winner's computed row below every other one at every point of the
    cell whenever 2^(N+3) + 10m + 4 < 2^17: for N up to 12 with thousands
    of controls, beyond any mesh a solve builds.
    """
    it, scale = sol.iterate, tau ** (-sol.gamma)
    p = blend(time_taps(it.time_grid[1:], tau), it.fbar_values) * scale
    u, ell1 = ham.control_points, ham.running_cost
    rows = p @ u.T + ell1                                  # (*grid, n_u)
    winner = rows.argmin(axis=-1)
    if rows.shape[-1] > 1:
        top2 = np.partition(rows, 1, axis=-1)
        gap = top2[..., 1] - top2[..., 0]
    else:
        gap = np.full(winner.shape, np.inf)
    bound = np.abs(ell1).max() + np.abs(u).sum(axis=1).max() * np.abs(p).max()
    sure = gap > 2.0 ** -36 * bound
    cells = tuple(slice(0, n - 1) for n in winner.shape)
    first = winner[cells]
    certain = np.ones(first.shape, dtype=bool)
    for corner in itertools.product((0, 1), repeat=winner.ndim):
        at = tuple(slice(o, n - 1 + o) for o, n in zip(corner, winner.shape))
        certain &= (winner[at] == first) & sure[at]
    table = np.full(winner.shape, -1, dtype=np.intp)
    table[cells] = np.where(certain, first, -1)
    return table.ravel()


def _greedy_controls(
    winners: np.ndarray, sol: HJBSolution, ham: Hamiltonian, tau: float, z: np.ndarray
) -> np.ndarray:
    """Greedy control indices at backward time ``tau`` of the (N, B) states
    ``z``: read from the step's :func:`_cell_winners` table in certain
    cells, and in the others the argmin of :func:`h_min_batch` at the
    gradient that :func:`interp_fbar` interpolates.  Both routines work
    elementwise per sample, so on the subset they give the indices of a
    pass over all samples, bit for bit."""
    idx = winners.take(locate_cells(sol.iterate.space_axes, z)[0], mode="clip")
    doubt = np.flatnonzero(idx < 0)
    if doubt.size:
        p = interp_fbar(sol.iterate, tau, z[:, doubt])
        p *= tau ** (-sol.gamma)
        idx[doubt] = h_min_batch(ham, p, argmin=True)[1]
    return idx


def simulate_cost(
    model: ProjectedModel,
    cost: CostSpec,
    policy: Policy,
    t0: float,
    x0,
    n_samples: int = 10_000,
    time_steps: int = 20,
    seed: int = 0,
) -> SimulationResult:
    """Monte Carlo cost of a policy started from (t0, x0)."""
    T = cost.horizon
    if not 0.0 <= t0 < T:
        raise ValueError("need 0 <= t0 < horizon")
    if n_samples < 1 or time_steps < 1:
        raise ValueError("need n_samples >= 1 and time_steps >= 1")
    u_grid, idx = cost.ham.control_points, policy.indices
    if policy.kind == "greedy":
        _check_solution(policy.solution, model, cost)
    elif policy.kind != "open_loop":
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    elif idx is None or idx.shape != (time_steps,):
        raise DimensionMismatch("open-loop policy needs one index per step")
    elif idx.min() < 0 or idx.max() >= len(u_grid):
        raise DimensionMismatch(
            f"open-loop policy: control indices must lie in [0, {len(u_grid)})")
    rng = np.random.default_rng(seed)
    steps = np.linspace(t0, T, time_steps + 1)
    dt = steps[1] - steps[0]
    ell0_int = cost.ell0_integral(t0, T)
    b_ints = _control_integrals(model, t0, T, time_steps)
    ell1 = cost.ham.running_cost
    z_det = np.asarray(model.proj_semigroup_apply(T - t0, x0), dtype=float)
    costs = np.empty(n_samples)

    if policy.kind == "open_loop":
        mean_terminal = z_det + np.einsum("jnk,jk->n", b_ints, u_grid[idx])
        root_t = psd_roots(model.proj_cov(T - t0))[0].T
        c0 = ell0_int + float(ell1[idx].sum() * dt)
        for lo, hi in _spans(n_samples, _SIM_BLOCK):
            z = rng.standard_normal((hi - lo, model.proj_dim)) @ root_t
            z += mean_terminal
            costs[lo:hi] = c0 + cost.phi(z)
        return SimulationResult.from_costs(costs)

    sol = policy.solution

    # Covariances of the steps' noise increments (see the module docstring):
    # one query for all steps (to_go[-1] is 0) and one stacked root.
    to_go = T - steps
    roots = psd_roots(model.pushforward_cov(to_go[1:], to_go[:-1]))[0]
    response = b_ints @ u_grid.T            # (steps, N, n_u) control responses
    # gradient clamped to the first resolved node near the horizon; the
    # resulting control is still admissible, so dominance is unaffected
    t_min = sol.iterate.time_grid[1]
    taus = [max(tau, t_min) for tau in to_go[:-1]]
    winners = [_cell_winners(sol, cost.ham, tau) for tau in taus]

    # Each block's noise is filled one block ahead by the worker, in stream
    # order a sixteenth of a block at a time, each chunk's slabs of all
    # steps multiplied in one stacked matmul.
    blocks = _spans(n_samples, _SIM_BLOCK)
    noise = np.empty((2, time_steps, model.proj_dim, _SIM_BLOCK + 1))
    rows = _SIM_BLOCK // 16
    draws = np.empty((rows + 1, time_steps, model.proj_dim))

    def fill(k):
        lo, hi = blocks[k]
        for r0, r1 in _spans(hi - lo, rows):
            chunk = draws[:r1 - r0]
            rng.standard_normal(out=chunk)
            np.matmul(roots, chunk.transpose(1, 2, 0), out=noise[k % 2, :, :, r0:r1])

    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(fill, 0)
        for k, (lo, hi) in enumerate(blocks):
            ahead.result()
            if k + 1 < len(blocks):
                ahead = worker.submit(fill, k + 1)
            b = hi - lo
            blk_cost = np.zeros(b)
            z = np.repeat(z_det[:, None], b, axis=1)
            for j, tau in enumerate(taus):
                idx = _greedy_controls(winners[j], sol, cost.ham, tau, z)
                blk_cost += ell1[idx] * dt
                z += response[j].take(idx, axis=1)
                z += noise[k % 2, j, :, :b]
            costs[lo:hi] = ell0_int + blk_cost + cost.phi(z.T)    # z = P X(T)
    return SimulationResult.from_costs(costs)


def value_dominance_check(
    model: ProjectedModel,
    cost: CostSpec,
    sol: HJBSolution,
    policies,
    t0: float,
    x0,
    n_samples: int = 10_000,
    time_steps: int = 20,
    seed: int = 0,
) -> dict:
    """Test v(t0, x0) <= mean policy cost + 3 std errors for every policy.

    Every policy is simulated; its entry records the test as ``"ok"`` (a
    failure is reported, not raised) and its per-sample costs as
    ``"samples"``.  The greedy suboptimality gap is reported as a
    diagnostic; optimality of the greedy feedback is not asserted (no
    verification theorem backs it).  A solution that does not fit the
    model and cost raises :class:`DimensionMismatch` before any simulation.
    """
    _check_solution(sol, model, cost)
    value = eval_value(sol, model, t0, x0)
    report = {"value": value, "policies": [], "greedy_gap": None}
    for i, pol in enumerate(policies):
        res = simulate_cost(
            model, cost, pol, t0, x0, n_samples, time_steps, seed=seed + 17 * i
        )
        gap = res.mean - value
        report["policies"].append({
            "name": pol.name or pol.kind,
            "kind": pol.kind,
            "mean": res.mean,
            "std_error": res.std_error,
            "gap": gap,
            "ok": bool(value <= res.mean + 3.0 * res.std_error),
            "samples": res.sample_costs,
        })
        if pol.kind == "greedy":
            report["greedy_gap"] = gap
    return report


def random_open_loop_policies(
    ham: Hamiltonian, time_steps: int, n_policies: int, seed: int = 0
) -> list[Policy]:
    rng = np.random.default_rng(seed)
    n_u = ham.control_points.shape[0]
    return [
        Policy.open_loop(rng.integers(0, n_u, size=time_steps), name=f"open_loop_{i}")
        for i in range(n_policies)
    ]

"""Policy simulation and value-dominance cross checks.

Because the running cost never touches the state, open-loop policies admit
exact terminal sampling: the projected terminal state is Gaussian around the
deterministic drift-plus-control mean, so no path discretization enters and
their simulated costs are unbiased up to the control-response quadrature.

Greedy (feedback) policies are simulated on a step grid.  The tracked
quantity is Z(s) = P e^{(T-s)A} X(s), which is exactly what the solved
gradient consumes and which reaches P X(T) at the horizon; its noise
increments are independent Gaussians with covariances assembled from
pushforward_cov, so the path law is exact and the only approximation is that
the control is held constant between steps (itself an admissible policy, so
dominance bounds remain valid).

Both branches run in blocks of at most _SIM_BLOCK samples, drawn in turn
from one generator.  The generator yields the same stream whether rows are
drawn in one call or in consecutive ones, and every step is elementwise per
sample, so the costs equal those of one whole-population pass bit for bit.
Each block's terminal states are priced by the terminal cost and dropped,
so memory is a few blocks' worth, whatever the number of samples: only the
(n_samples,) costs are a whole-population array.

The greedy loop keeps its arrays components first: the state and the
control sum are (N, B) and the gradient (m, B) for B samples, so the
scattered interpolation, the Hamiltonian argmin and the per-step updates
read contiguous rows.  Each step's control response is an (N, n_u) table
gathered by the argmin index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DominanceViolated
from .hjb import HJBSolution, Hamiltonian, h_min_batch, interp_fbar
from .ou import ProjectedModel, ProjectedTerminalCost, assemble_block_cov
from .spectral import psd_roots

# Samples per block of simulate_cost.  A greedy block keeps its per-step
# arrays (state, control sum, gradient, argmin scratch: about 1.3 MB at
# N = m = 2) in a core's L2 while all its steps run.  Greedy heat policy
# at 200 000 samples and 20 steps, on 2 MiB-L2 cores: 0.44 s with blocks of
# 16 384 to 65 536, 0.50 s with 8 192 (per-call overhead), 0.64 s in one
# whole-population pass.
_SIM_BLOCK = 16_384


@dataclass(frozen=True)
class CostSpec:
    """Finite-horizon objective: time cost, control cost grid, terminal cost."""

    ell0: object                  # vectorized callable of time
    ham: Hamiltonian
    phi: ProjectedTerminalCost
    horizon: float

    def ell0_integral(self, a: float, b: float) -> float:
        s = np.linspace(a, b, 2001)
        return float(np.trapezoid(np.asarray(self.ell0(s), dtype=float), s))


@dataclass(frozen=True)
class Policy:
    """Admissible control policy emitting indices into the control grid.

    ``constant``: one index for all steps; ``open_loop``: an index per step
    of the simulation grid; ``greedy``: the Hamiltonian argmin at the
    current control-gradient of a solved value function.
    """

    kind: str
    index: int = 0
    indices: np.ndarray | None = None
    solution: HJBSolution | None = None
    name: str = ""

    @classmethod
    def constant(cls, index: int) -> "Policy":
        return cls(kind="constant", index=index, name="constant")

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
        se = float(costs.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(costs, float(costs.mean()), se)


def _control_integrals(
    model: ProjectedModel, t0: float, horizon: float, steps: np.ndarray, n_gl: int = 12
) -> np.ndarray:
    """B_j = int_{s_j}^{s_{j+1}} proj_control(T - r) dr for each step.

    Composite Gauss-Legendre split at the control-response discontinuities
    (delay-atom activations); nodes are interior so proj_control is never
    evaluated at exactly 0.
    """
    x, w = np.polynomial.legendre.leggauss(n_gl)
    out = np.empty((steps.size - 1, model.proj_dim, model.control_dim))
    for j in range(steps.size - 1):
        lo, hi = horizon - steps[j + 1], horizon - steps[j]
        cuts = [lo] + [d for d in model.control_discontinuities if lo < d < hi] + [hi]
        acc = np.zeros((model.proj_dim, model.control_dim))
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            if half <= 0:
                continue
            for xi, wi in zip(x, w):
                acc += wi * half * model.proj_control(mid + half * xi)
        out[j] = acc
    return out


@lru_cache(maxsize=8)
def _step_control_integrals(
    model: ProjectedModel, t0: float, horizon: float, time_steps: int
) -> np.ndarray:
    """Read-only ``_control_integrals`` table on the uniform simulation grid.

    Every policy of a round shares it, so it is built once per (model, t0,
    horizon, time_steps); models are immutable, so identity keys are sound.
    The cache keeps its last 8 models alive.
    """
    out = _control_integrals(
        model, t0, horizon, np.linspace(t0, horizon, time_steps + 1)
    )
    out.flags.writeable = False
    return out


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
    rng = np.random.default_rng(seed)
    steps = np.linspace(t0, T, time_steps + 1)
    dt = steps[1] - steps[0]
    ell0_int = cost.ell0_integral(t0, T)
    b_ints = _step_control_integrals(model, t0, T, time_steps)
    u_grid = cost.ham.control_points
    ell1 = cost.ham.running_cost
    z_det = np.asarray(model.proj_semigroup_apply(T - t0, x0), dtype=float)
    costs = np.empty(n_samples)

    if policy.kind in ("constant", "open_loop"):
        if policy.kind == "constant":
            idx = np.full(time_steps, policy.index, dtype=int)
        else:
            idx = policy.indices
            if idx is None or idx.shape != (time_steps,):
                raise DimensionMismatch("open-loop policy needs one index per step")
        mean_terminal = z_det + np.einsum("jnk,jk->n", b_ints, u_grid[idx])
        root_t = psd_roots(model.proj_cov(T - t0))[0].T
        c0 = ell0_int + float(ell1[idx].sum() * dt)
        for lo in range(0, n_samples, _SIM_BLOCK):
            b = min(_SIM_BLOCK, n_samples - lo)
            z = rng.standard_normal((b, model.proj_dim)) @ root_t
            z += mean_terminal
            costs[lo:lo + b] = c0 + cost.phi(z)
        return SimulationResult.from_costs(costs)

    if policy.kind != "greedy":
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    sol = policy.solution
    if sol is None:
        raise ValueError("greedy policy needs an HJB solution")

    # Joint noise of Z_j = P e^{(T-s_j)A} X(s_j): the stochastic parts are
    # integrals of a common kernel, so Cov(Y_i, Y_j) depends on min(i, j)
    # only; one global factorization gives the exact joint law.  Each of
    # the time_steps distinct blocks is built once: the pushforward
    # covariances of the steps before the horizon in one query, then the
    # last step's, which reaches the horizon, proj_cov(T - t0).
    blocks = np.concatenate((model.pushforward_cov(T - steps[1:-1], T - t0),
                             [model.proj_cov(T - t0)]))

    # Step j's noise is rows j*N:(j+1)*N of root @ draws.T, for a block's
    # draws of shape (B, steps*N); the draws are freed once the product exists.
    n_dim = model.proj_dim
    root = psd_roots(
        assemble_block_cov(lambda i, j: blocks[min(i, j)], time_steps, n_dim)
    )[0]
    response = b_ints @ u_grid.T            # (steps, N, n_u) control responses
    t_min = sol.iterate.time_grid[1]
    for lo in range(0, n_samples, _SIM_BLOCK):
        b = min(_SIM_BLOCK, n_samples - lo)
        noise = root @ rng.standard_normal((b, time_steps * n_dim)).T
        blk_cost = np.zeros(b)
        ctrl_sum = np.zeros((n_dim, b))
        z = np.broadcast_to(z_det[:, None], (n_dim, b))
        for j in range(time_steps):
            # gradient clamped to the first resolved node near the horizon;
            # the resulting control is still admissible, so dominance is
            # unaffected
            tau = max(T - steps[j], t_min)
            p = interp_fbar(sol.iterate, tau, z)
            p *= tau ** (-sol.gamma)
            _, idx = h_min_batch(cost.ham, p, argmin=True)
            blk_cost += ell1[idx] * dt
            ctrl_sum += response[j].take(idx, axis=1)
            z = z_det[:, None] + ctrl_sum
            z += noise[j * n_dim:(j + 1) * n_dim]
        costs[lo:lo + b] = ell0_int + blk_cost + cost.phi(z.T)   # z = P X(T)
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
    keep_samples: bool = False,
) -> dict:
    """Check v(t0, x0) <= mean policy cost + 3 std errors for every policy.

    The greedy suboptimality gap is reported as a diagnostic; optimality of
    the greedy feedback is not asserted (no verification theorem backs it).
    Raises :class:`DominanceViolated` naming the offending policy.
    ``keep_samples`` attaches the per-sample cost arrays to the report.
    """
    from .hjb import eval_value

    value = eval_value(sol, model, t0, x0)
    report = {"value": value, "policies": [], "greedy_gap": None}
    for i, pol in enumerate(policies):
        res = simulate_cost(
            model, cost, pol, t0, x0, n_samples, time_steps, seed=seed + 17 * i
        )
        gap = res.mean - value
        ok = value <= res.mean + 3.0 * res.std_error
        entry = {
            "name": pol.name or pol.kind,
            "kind": pol.kind,
            "mean": res.mean,
            "std_error": res.std_error,
            "gap": gap,
            "ok": bool(ok),
        }
        if keep_samples:
            entry["samples"] = res.sample_costs
        report["policies"].append(entry)
        if pol.kind == "greedy":
            report["greedy_gap"] = gap
        if not ok:
            raise DominanceViolated(
                f"policy {pol.name or pol.kind!r}: value {value:.6g} exceeds "
                f"mean cost {res.mean:.6g} + 3 se ({3 * res.std_error:.3g})"
            )
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

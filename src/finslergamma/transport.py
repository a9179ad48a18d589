"""Discrete optimal transport with the asymmetric squared-distance cost.

The cost of moving unit mass from x to y is d(x, y)^2 = F(y - x)^2, which is
*not* symmetric in (x, y) for a non-reversible norm: the first marginal is
always the source.

Two solvers:

* ``quantile_transport_cost`` -- exact monotone (quantile) coupling on 1D
  non-periodic grids, in closed form.  The cost is convex in the displacement
  y - x, so the monotone rearrangement is optimal, asymmetric or not
  (Villani 2003, the real-line case): mass level t of mu goes to mass level t
  of nu.  Between two consecutive cumulative masses of either measure a
  whole piece moves from one source node to one target node, so the cost is
  one sort, two ``np.searchsorted`` calls and one vectorized norm evaluation.
* ``lp_transport_cost`` -- a linear-programming oracle over an explicit cost
  matrix, exact on small instances; used both to cross-validate the quantile
  coupling and, through support coarsening, as the 2D solver (capped at
  64 x 64 transport instances).

``scipy.optimize`` is imported inside ``lp_transport_cost``: only the LP
path needs it, and importing it with the package made every command start
about 0.3 s slower (1D non-periodic transport never reaches the LP).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .space import WeightedSpace

__all__ = ["quantile_transport_cost", "lp_transport_cost", "transport_cost_sq",
           "wasserstein2", "coarsen_measure", "MAX_LP_SUPPORT"]

MAX_LP_SUPPORT = 64

_MASS_TOL = 1e-9


def _check_marginal(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-15):
        raise ValueError(f"{name} has negative mass")
    total = p.sum()
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"{name} mass {total} is not 1")
    return np.clip(p, 0.0, None) / total


def quantile_transport_cost(space: WeightedSpace, mu, nu) -> float:
    """Optimal squared-cost transport of mu onto nu by monotone coupling.

    Both measures live on the nodes of a 1D non-periodic grid (already in
    coordinate order).  The cumulative masses of mu and nu, merged and cut
    at the smaller total, split [0, 1] into pieces; each piece moves from
    the first node whose cumulative mu reaches its upper end to the first
    such node of nu.  Returns sum of F(y - x)^2 times mass moved.
    """
    if space.dim != 1 or space.domain.periodic:
        raise ValueError("quantile coupling applies to 1D non-periodic grids")
    cum_mu = np.cumsum(_check_marginal(mu, "mu"))
    cum_nu = np.cumsum(_check_marginal(nu, "nu"))
    levels = np.minimum(np.sort(np.concatenate((cum_mu, cum_nu))),
                        min(cum_mu[-1], cum_nu[-1]))
    moved = np.diff(levels, prepend=0.0)
    x = space.coords[:, 0]
    step = x[np.searchsorted(cum_nu, levels)] - x[np.searchsorted(cum_mu, levels)]
    return float(moved @ space.norm.values(step[:, None]) ** 2)


def lp_transport_cost(cost_matrix: np.ndarray, mu, nu) -> float:
    """Exact optimal transport cost by linear programming (small instances)."""
    from scipy.optimize import linprog

    C = np.asarray(cost_matrix, dtype=float)
    mu = _check_marginal(mu, "mu")
    nu = _check_marginal(nu, "nu")
    m, n = C.shape
    if m * n > MAX_LP_SUPPORT * MAX_LP_SUPPORT:
        raise ValueError(
            f"LP instance {m}x{n} exceeds the {MAX_LP_SUPPORT}x{MAX_LP_SUPPORT} cap"
        )
    # row-sum constraints plus all but one redundant column constraint, over
    # the plan flattened row-major
    A_eq = sp.vstack([sp.kron(sp.identity(m), np.ones((1, n))),
                      sp.kron(np.ones((1, m)), sp.identity(n), format="csr")[:-1]])
    result = linprog(C.reshape(-1), A_eq=A_eq, b_eq=np.r_[mu, nu[:-1]],
                     bounds=(0, None), method="highs")
    if not result.success:
        raise RuntimeError(f"transport LP failed: {result.message}")
    return float(result.fun)


def _pair_cost_matrix(space: WeightedSpace, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """F(y - x)^2 between explicit source/target points (minimizing over
    lattice translates on periodic axes)."""
    C = np.full((len(xs), len(ys)), np.inf)
    for shift in space.translates():
        delta = ys[None, :, :] - xs[:, None, :] + shift
        vals = space.norm.values(delta.reshape(-1, space.dim)).reshape(len(xs), len(ys))
        C = np.minimum(C, vals**2)
    return C


def coarsen_measure(space: WeightedSpace, p):
    """Aggregate a nodal measure onto at most ``MAX_LP_SUPPORT`` blocks.

    Blocks are contiguous along each axis; each keeps its total mass at the
    mass-weighted centroid.  Exact when the grid is already small enough.
    """
    p = np.asarray(p, dtype=float)
    per_axis = max(1, int(np.floor(MAX_LP_SUPPORT ** (1.0 / space.dim))))
    factors = [int(np.ceil(n / per_axis)) for n in space.shape]
    multi = np.unravel_index(np.arange(space.n_nodes), space.shape)
    blocks = [m // f for m, f in zip(multi, factors)]
    ids = np.ravel_multi_index(blocks, [b.max() + 1 for b in blocks])
    # nodes without positive mass add exact zeros; blocks without one are dropped
    w = np.where(p > 0, p, 0.0)
    keep = np.bincount(ids, weights=p > 0) > 0
    weights = np.bincount(ids, weights=w)[keep]
    moments = np.stack([np.bincount(ids, weights=w * x)[keep] for x in space.coords.T], axis=1)
    return moments / weights[:, None], weights


def transport_cost_sq(space: WeightedSpace, mu, nu=None) -> float:
    """Squared asymmetric Wasserstein cost W2^2(mu, nu); nu defaults to the
    reference measure.  1D non-periodic grids use the exact quantile
    coupling; everything else goes through the (possibly coarsened) LP."""
    if nu is None:
        nu = space.cell_mass
    if space.dim == 1 and not space.domain.periodic:
        return quantile_transport_cost(space, mu, nu)
    xs, wx = coarsen_measure(space, np.asarray(mu, dtype=float))
    ys, wy = coarsen_measure(space, np.asarray(nu, dtype=float))
    C = _pair_cost_matrix(space, xs, ys)
    return lp_transport_cost(C, wx, wy)


def wasserstein2(space: WeightedSpace, mu, nu=None) -> float:
    return float(np.sqrt(transport_cost_sq(space, mu, nu)))

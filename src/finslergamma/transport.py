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
* ``lp_transport_cost`` -- the transport linear program over an explicit
  cost matrix of at most 64 x 64; it cross-validates the quantile coupling
  and, through support coarsening, is the 2D solver.  An optimal plan uses
  at most m + n - 1 of the m n arcs, so the LP is solved on a small set of
  active arcs: the cheapest arcs of each row and column plus the support of
  the monotone coupling, which is a feasible plan.  The LP duals then price
  every arc, and arcs with a negative reduced cost join the set until none
  is left, which certifies the value for the full LP to within
  1e-12 max(1, max C) (shielding, Schmitzer 2016; LP duality as in
  Peyre-Cuturi 2019).  HiGHS runs without presolve: on steep weights coarse
  masses fall below its 1e-7 feasibility tolerance, and presolve then calls
  the LP infeasible, although the product plan mu x nu is always feasible.

scipy (``scipy.sparse`` for the constraint matrix, ``scipy.optimize`` for
``linprog``) is imported inside ``lp_transport_cost``: only the LP path
needs it, and 1D non-periodic transport never reaches it.  Importing
``scipy.optimize`` with the package made every command start about 0.3 s
slower.
"""

from __future__ import annotations

import numpy as np

from .space import WeightedSpace

__all__ = ["quantile_transport_cost", "lp_transport_cost", "transport_cost_sq",
           "coarsen_measure", "MAX_LP_SUPPORT"]

MAX_LP_SUPPORT = 64

_MASS_TOL = 1e-9

#: cheapest arcs per row and per column in the LP's first active set
_START_ARCS = 8


def _check_marginal(p, name: str, size: int | None = None) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or size not in (None, len(p)):
        raise ValueError(f"{name} has shape {p.shape}, expected ({size or 'n'},)")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has non-finite mass")
    if np.any(p < -1e-15):
        raise ValueError(f"{name} has negative mass")
    total = p.sum()
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(f"{name} mass {total} is not 1")
    return np.clip(p, 0.0, None) / total


def _monotone_pieces(mu: np.ndarray, nu: np.ndarray):
    """The monotone (north-west-corner) coupling of two probability vectors
    in their given order.

    The cumulative masses of mu and nu, merged and cut at the smaller total,
    split [0, 1] into pieces; each piece moves from the first index whose
    cumulative mu reaches its upper end to the first such index of nu.
    Returns the mass of each piece, its source index and its target index.
    """
    cum_mu, cum_nu = np.cumsum(mu), np.cumsum(nu)
    levels = np.minimum(np.sort(np.concatenate((cum_mu, cum_nu))),
                        min(cum_mu[-1], cum_nu[-1]))
    return (np.diff(levels, prepend=0.0), np.searchsorted(cum_mu, levels),
            np.searchsorted(cum_nu, levels))


def quantile_transport_cost(space: WeightedSpace, mu, nu) -> float:
    """Optimal squared-cost transport of mu onto nu by monotone coupling.

    Both measures live on the nodes of a 1D non-periodic grid (already in
    coordinate order), so the monotone coupling of the two vectors is an
    optimal plan.  Returns sum of F(y - x)^2 times mass moved.
    """
    if space.dim != 1 or space.domain.periodic:
        raise ValueError("quantile coupling applies to 1D non-periodic grids")
    moved, source, target = _monotone_pieces(_check_marginal(mu, "mu", space.n_nodes),
                                             _check_marginal(nu, "nu", space.n_nodes))
    x = space.coords[:, 0]
    step = x[target] - x[source]
    return float(moved @ space.norm.values(step[:, None]) ** 2)


def lp_transport_cost(cost_matrix: np.ndarray, mu, nu) -> float:
    """Optimal transport cost of mu onto nu by linear programming on a
    growing set of active arcs (instances up to 64 x 64).

    The first active set holds the ``_START_ARCS`` cheapest arcs of each row
    and of each column plus the support of the monotone coupling, a feasible
    plan.  After each solve the duals phi, psi price all m x n arcs (psi is 0
    on the last column, whose redundant constraint is dropped), and every
    arc whose reduced cost C_ij - phi_i - psi_j is below -eps joins, with
    eps = 1e-12 max(1, max C).  When none is left, (phi, psi - eps) is
    feasible for the dual of the full LP, so by weak duality the returned
    value exceeds the full optimum by at most eps (within the tolerances of
    the solve itself); it is never below it, since the active plan is a
    plan of the full LP.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    C = np.asarray(cost_matrix, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"the cost matrix has shape {C.shape}, expected 2 axes")
    m, n = C.shape
    if m * n > MAX_LP_SUPPORT * MAX_LP_SUPPORT:
        raise ValueError(
            f"LP instance {m}x{n} exceeds the {MAX_LP_SUPPORT}x{MAX_LP_SUPPORT} cap"
        )
    if not np.isfinite(C).all():
        raise ValueError("the cost matrix has non-finite entries")
    mu = _check_marginal(mu, "mu", m)
    nu = _check_marginal(nu, "nu", n)
    eps = 1e-12 * max(1.0, C.max())
    active = np.zeros((m, n), dtype=bool)
    k_row, k_col = min(_START_ARCS, n), min(_START_ARCS, m)
    active[np.arange(m)[:, None], np.argpartition(C, k_row - 1, axis=1)[:, :k_row]] = True
    active[np.argpartition(C, k_col - 1, axis=0)[:k_col], np.arange(n)] = True
    active[_monotone_pieces(mu, nu)[1:]] = True
    while True:
        # the plan over the active arcs in row-major order: one constraint
        # per source, one per target but the last
        i, j = np.nonzero(active)
        arcs = np.arange(len(i))
        A_eq = sp.csr_matrix((np.ones(2 * len(i)), (np.r_[i, m + j], np.r_[arcs, arcs])),
                             shape=(m + n, len(i)))[:-1]
        result = linprog(C[i, j], A_eq=A_eq, b_eq=np.r_[mu, nu[:-1]],
                         bounds=(0, None), method="highs", options={"presolve": False})
        if not result.success:
            raise RuntimeError(f"transport LP failed: {result.message}")
        duals = result.eqlin.marginals
        reduced = C - duals[:m, None] - np.r_[duals[m:], 0.0]
        entering = (reduced < -eps) & ~active
        if not entering.any():
            return float(result.fun)
        active |= entering


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


def transport_cost_sq(space: WeightedSpace, mu, nu) -> float:
    """Squared asymmetric Wasserstein cost W2^2(mu, nu).  1D non-periodic
    grids use the exact quantile coupling; everything else goes through the
    (possibly coarsened) LP."""
    if space.dim == 1 and not space.domain.periodic:
        return quantile_transport_cost(space, mu, nu)
    xs, wx = coarsen_measure(space, np.asarray(mu, dtype=float))
    ys, wy = coarsen_measure(space, np.asarray(nu, dtype=float))
    C = _pair_cost_matrix(space, xs, ys)
    return lp_transport_cost(C, wx, wy)

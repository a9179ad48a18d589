"""Weighted Ricci curvature on flat weighted Minkowski spaces.

On a flat space the geodesic through x with velocity v is the straight line
x + t v and the unperturbed Ricci curvature vanishes, so the N-weighted
Ricci curvature reduces to derivatives of the weight along the line:

    Ric_N(v) = Hess(Psi)(v, v) - (D Psi . v)^2 / (N - n),

with the correction term dropped at N = infinity.  (The geodesic extension
of v is a constant vector field, its metric tensor a constant matrix, so
the induced volume differs from Lebesgue by a constant and contributes
nothing to the derivatives of Psi along the line; the weight carries all
the curvature.)  Ric_N(c v) = c^2 Ric_N(v) holds exactly.

Admissible dimension parameters are N in (-inf, 0) or [n, inf]; N in [0, n)
is rejected.  At N = n the correction term is the limit value and is only
defined where D Psi . v = 0; other inputs are rejected rather than being
assigned -infinity.

``effective_K`` certifies-by-sampling the infimum of Ric_N(v) over all grid
nodes and F-unit directions; in 1D the unit sphere is exactly two vectors,
in 2D a nested angular grid.  The result is the curvature constant every
inequality checker uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import operators_for
from .norms import unit_sphere_directions
from .space import WeightedSpace

__all__ = ["CurvatureReport", "ricci_N", "effective_K", "admissible_N"]

MIN_DIRECTIONS = 4


def admissible_N(N: float, dim: int) -> bool:
    """True iff N lies in (-inf, 0) or [dim, inf]."""
    if math.isinf(N):
        return N > 0
    return N < 0 or N >= dim


def _require_admissible(N: float, dim: int) -> None:
    if not admissible_N(N, dim):
        raise ValueError(f"N = {N} is not admissible (need N < 0 or N >= {dim})")


@dataclass(frozen=True)
class CurvatureReport:
    """Certified-by-sampling curvature bound for one (space, N)."""

    K_eff: float
    N: float
    argmin_node: int
    argmin_direction: tuple
    n_nodes: int
    n_directions: int


def _weight_derivatives(space: WeightedSpace) -> tuple:
    """(D Psi, Hess Psi) at the nodes, memoized on the space."""
    cached = getattr(space, "_weight_derivatives", None)
    if cached is None:
        ops = operators_for(space)
        dpsi = ops.differential(space.psi)
        # hess[:, a, b] = D_a (D_b Psi)
        hess = np.stack([ops.differential(dpsi[:, b]) for b in range(space.dim)], axis=2)
        # axis operators commute (tensor-product grid); symmetrize anyway
        cached = (dpsi, 0.5 * (hess + np.transpose(hess, (0, 2, 1))))
        space._weight_derivatives = cached  # idempotent memo, write-once
    return cached


def _ricci_values(space: WeightedSpace, v: np.ndarray, N: float,
                  nodes=slice(None)) -> np.ndarray:
    """Ric_N(v) at the given nodes (default: all) for one fixed direction v."""
    dpsi, hess = _weight_derivatives(space)
    quad = np.einsum("mij,i,j->m", hess[nodes], v, v)
    if math.isinf(N):
        return quad
    lin = dpsi[nodes] @ v
    if N == space.dim:
        tol = 1e-10 * (1.0 + float(np.max(np.abs(dpsi))))
        if np.any(np.abs(lin) > tol):
            raise ValueError(
                "N equals the dimension but D Psi(v) does not vanish; "
                "the limit correction term is undefined here"
            )
        return quad
    return quad - lin**2 / (N - space.dim)


def ricci_N(space: WeightedSpace, node: int, v, N: float) -> float:
    """Weighted Ricci curvature Ric_N(v) at one grid node."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.any(v):
        raise ValueError("Ric_N is undefined at v = 0 (and trivially 0 by scaling)")
    _require_admissible(N, space.dim)
    return float(_ricci_values(space, v, N, [node])[0])


def _unit_directions(space: WeightedSpace, n_directions: int) -> np.ndarray:
    """F-unit directions: the exact two-point sphere in 1D, angular in 2D."""
    norm = space.norm
    if space.dim == 1:
        plus = 1.0 / norm(np.array([1.0]))
        minus = 1.0 / norm(np.array([-1.0]))
        return np.array([[plus], [-minus]])
    dirs = unit_sphere_directions(space.dim, n_directions)
    return dirs / norm.values(dirs)[:, None]


def effective_K(space: WeightedSpace, N: float, n_directions: int = 16) -> CurvatureReport:
    """Infimum of Ric_N over nodes and sampled F-unit directions.

    Deterministic for a fixed direction count; refining the angular grid can
    only lower (never raise) the reported bound.
    """
    _require_admissible(N, space.dim)
    if space.dim > 1 and n_directions < MIN_DIRECTIONS:
        raise ValueError(f"need at least {MIN_DIRECTIONS} directions per node")
    dirs = _unit_directions(space, n_directions)
    best = math.inf
    arg_node, arg_dir = 0, dirs[0]
    for v in dirs:
        vals = _ricci_values(space, v, N)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            arg_node, arg_dir = k, v
    return CurvatureReport(
        K_eff=best,
        N=N,
        argmin_node=arg_node,
        argmin_direction=tuple(float(c) for c in arg_dir),
        n_nodes=space.n_nodes,
        n_directions=len(dirs),
    )

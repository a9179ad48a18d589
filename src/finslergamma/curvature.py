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
defined where D Psi vanishes, to 1e-10 (1 + max |D Psi|): at every node for
``effective_K``, at its own node for ``ricci_N``; other inputs are rejected
rather than being assigned -infinity.

``effective_K`` is the infimum of Ric_N over all nodes and F-unit directions,
exact to rounding: the curvature constant every checker uses.  In 1D the unit
sphere is two vectors.  In 2D, Ric_N(v) = v' M_x v, and the unit sphere of
F(v) = |v|_A + b.v (b = 0: Euclidean) is the ellipse (v - c)' B (v - c) = r
with B = A - b b', c = -B^-1 b, r = 1 + b' B^-1 b (Zermelo navigation;
Bao-Robles-Shen 2004).  With v = c + W u, |u| = 1, each node is a trust-region
boundary problem whose multiplier is the rightmost eigenvalue of
[[-P, I], [p p', -P]] (Adachi-Iwata-Nakatsukasa-Takeda 2017).  Near its hard
case the multiplier's direction is inaccurate, so both hard-case completions
join it; each candidate angle gets Newton steps on the trigonometric
polynomial q(theta), and Ric_N is evaluated at the candidate points, which
lie on the ellipse, so the reported K is attained.  Nothing is memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import operators_for
from .norms import RandersNorm
from .space import WeightedSpace

__all__ = ["CurvatureReport", "ricci_N", "effective_K", "admissible_N"]


def admissible_N(N: float, dim: int) -> bool:
    """True iff N lies in (-inf, 0) or [dim, inf]."""
    if math.isinf(N):
        return N > 0
    return N < 0 or N >= dim


@dataclass(frozen=True)
class CurvatureReport:
    """K_eff of one (space, N), and the node and F-unit direction attaining it."""

    K_eff: float
    N: float
    argmin_node: int
    argmin_direction: tuple
    n_nodes: int


def _weight_derivatives(space: WeightedSpace, N: float = math.inf,
                        nodes=slice(None)) -> tuple:
    """(D Psi, Hess Psi) at the given nodes (default: all); a ValueError at an
    inadmissible N, and at N = n unless D Psi vanishes there (module docstring)."""
    if not admissible_N(N, space.dim):
        raise ValueError(f"N = {N} is not admissible (need N < 0 or N >= {space.dim})")
    ops = operators_for(space)
    dpsi = ops.differential(space.psi)
    # hess[:, a, b] = D_a (D_b Psi)
    hess = np.stack([ops.differential(dpsi[:, b]) for b in range(space.dim)], axis=2)
    if N == space.dim and np.any(np.abs(dpsi[nodes]) > 1e-10 * (1.0 + np.max(np.abs(dpsi)))):
        raise ValueError("N equals the dimension but D Psi does not vanish; "
                         "the limit correction term is undefined here")
    # axis operators commute (tensor-product grid); symmetrize anyway
    return dpsi[nodes], 0.5 * (hess + np.transpose(hess, (0, 2, 1)))[nodes]


def _ricci_values(dpsi: np.ndarray, hess: np.ndarray, v: np.ndarray, N: float) -> np.ndarray:
    """Ric_N(v) at each node of (dpsi, hess) for one fixed direction v."""
    quad = np.einsum("mij,i,j->m", hess, v, v)
    if math.isinf(N) or N == dpsi.shape[1]:
        return quad
    return quad - (dpsi @ v) ** 2 / (N - dpsi.shape[1])


def ricci_N(space: WeightedSpace, node: int, v, N: float) -> float:
    """Weighted Ricci curvature Ric_N(v) at one grid node."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if not np.any(v):
        raise ValueError("Ric_N is undefined at v = 0 (and trivially 0 by scaling)")
    return float(_ricci_values(*_weight_derivatives(space, N, [node]), v, N)[0])


def _ellipse_candidates(norm, dpsi: np.ndarray, M: np.ndarray, N: float) -> tuple:
    """Ric_N at three candidate minimizers per node on the F-unit ellipse
    {c + W u : |u| = 1} of a 2D norm, given (D Psi, Hess Psi) at the nodes,
    and the candidates: shapes (3, M) and (3, M, 2)."""
    if not isinstance(norm, RandersNorm):  # Euclidean included, at b = 0
        raise TypeError(f"no closed-form unit sphere for {type(norm).__name__}")
    b = norm.b
    B = norm.A - np.outer(b, b)
    c = -np.linalg.solve(B, b)
    W = np.sqrt(1.0 - b @ c) * np.linalg.inv(np.linalg.cholesky(B)).T  # W'BW = r I
    if not (math.isinf(N) or N == 2):
        M = M - dpsi[:, :, None] * dpsi[:, None, :] / (N - 2)
    # Ric_N(c + W u) = u'Pu + 2p'u + c'Mc; work in the eigenbasis P = Q diag(mu) Q'
    mu, Q = np.linalg.eigh(W.T @ M @ W)
    p = np.einsum("mji,mj->mi", Q, W.T @ M @ c)
    eye = np.broadcast_to(np.eye(2), Q.shape)
    D = mu[:, :, None] * eye
    lam = np.linalg.eigvals(np.block([[-D, eye], [p[:, :, None] * p[:, None, :], -D]]))
    d = mu + lam.real.max(axis=1)[:, None]
    u = -np.divide(p, d, out=np.zeros_like(p), where=d > 0)
    # hard case: u_2 = -p_2 / (mu_2 - mu_1), completed to |u| = 1 with either sign
    gap = mu[:, 1] - mu[:, 0]
    w = np.clip(-np.divide(p[:, 1], gap, out=np.zeros_like(gap), where=gap > 0), -1.0, 1.0)
    s = np.sqrt(1.0 - w * w)
    theta = np.stack([np.arctan2(u[:, 1], u[:, 0]), np.arctan2(w, s), np.arctan2(w, -s)])
    for _ in range(3):  # Newton steps on q(theta)
        cos, sin = np.cos(theta), np.sin(theta)
        dq = gap * np.sin(2.0 * theta) + 2.0 * (p[:, 1] * cos - p[:, 0] * sin)
        d2q = 2.0 * gap * np.cos(2.0 * theta) - 2.0 * (p[:, 0] * cos + p[:, 1] * sin)
        theta = theta - np.divide(dq, d2q, out=np.zeros_like(dq), where=d2q > 0)
    V = c + np.einsum("mij,cmj->cmi", W @ Q, np.stack([np.cos(theta), np.sin(theta)], -1))
    return np.einsum("mij,cmi,cmj->cm", M, V, V), V


def effective_K(space: WeightedSpace, N: float) -> CurvatureReport:
    """Infimum of Ric_N over the grid nodes and F-unit directions, exact to
    rounding; each call derives Psi's derivatives and solves anew."""
    dpsi, hess = _weight_derivatives(space, N)
    if space.dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        dirs = dirs / space.norm.values(dirs)[:, None]
        vals = np.stack([_ricci_values(dpsi, hess, v, N) for v in dirs])
        V = np.broadcast_to(dirs[:, None, :], vals.shape + (1,))
    else:
        vals, V = _ellipse_candidates(space.norm, dpsi, hess, N)
    j, k = np.unravel_index(np.argmin(vals), vals.shape)
    return CurvatureReport(K_eff=float(vals[j, k]), N=N, argmin_node=int(k),
                           argmin_direction=tuple(float(c) for c in V[j, k]),
                           n_nodes=space.n_nodes)

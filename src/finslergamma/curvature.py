"""Weighted Ricci curvature on flat weighted Minkowski spaces.

On a flat space the geodesic through x with velocity v is the straight line
x + t v and the unperturbed Ricci curvature vanishes, so the N-weighted
Ricci curvature reduces to derivatives of the weight along the line:

    Ric_N(v) = Hess(Psi)(v, v) - (D Psi . v)^2 / (N - n) = v' M_N v,

with the correction term dropped at N = infinity (Ohta-Sturm 2014).  (The
geodesic extension of v is a constant vector field, its metric tensor a
constant matrix, so the induced volume differs from Lebesgue by a constant
and contributes nothing to the derivatives of Psi along the line; the weight
carries all the curvature.)  Each node has one form M_N, the stencil Hessian
of Psi less D Psi D Psi' / (N - n), and every Ric_N value is read from it;
Ric_N(c v) = c^2 Ric_N(v) is exact in floating point only for c a power of 2.

Admissible dimension parameters are N in (-inf, 0) or [n, inf]; N in [0, n)
is rejected.  At N = n the correction term is the limit value and is only
defined where D Psi vanishes, to 1e-10 (1 + max |D Psi|), at every node;
other inputs are rejected rather than being assigned -infinity.

``effective_K`` is the infimum of Ric_N over all nodes and F-unit directions,
exact to rounding: the curvature constant every checker uses.  In 1D the unit
sphere is two vectors.  In 2D the unit sphere of F(v) = |v|_A + b.v (b = 0:
Euclidean) is the ellipse (v - c)' B (v - c) = r with B = A - b b',
c = -B^-1 b, r = 1 + b' B^-1 b (Zermelo navigation; Bao-Robles-Shen 2004).
With v = c + W u, |u| = 1, each node is a trust-region boundary problem
whose multiplier is the rightmost eigenvalue of
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

__all__ = ["CurvatureReport", "effective_K", "admissible_N"]


def admissible_N(N: float, dim: int) -> bool:
    """True iff N lies in (-inf, 0) or [dim, inf]."""
    if math.isinf(N):
        return N > 0
    return N < 0 or N >= dim


@dataclass(frozen=True)
class CurvatureReport:
    """K_eff of one (space, N), and the node and F-unit direction attaining it."""

    K_eff: float
    argmin_node: int
    argmin_direction: tuple


def _curvature_forms(space: WeightedSpace, N: float) -> np.ndarray:
    """M_N at every node, shape (M, n, n), so that Ric_N(v) = v' M_N v: the
    symmetrized stencil Hess Psi minus D Psi D Psi' / (N - n), the correction
    dropped at N = inf and N = n; a ValueError at an inadmissible N, and at
    N = n unless D Psi vanishes at every node (module docstring)."""
    n = space.dim
    if not admissible_N(N, n):
        raise ValueError(f"N = {N} is not admissible (need N < 0 or N >= {n})")
    ops = operators_for(space)
    dpsi = ops.differential(space.psi)
    # hess[:, a, b] = D_a (D_b Psi); the axis operators commute on a
    # tensor-product grid, so symmetrizing only removes rounding
    hess = np.stack([ops.differential(dpsi[:, b]) for b in range(n)], axis=2)
    M = 0.5 * (hess + np.transpose(hess, (0, 2, 1)))
    if N == n and np.any(np.abs(dpsi) > 1e-10 * (1.0 + np.max(np.abs(dpsi)))):
        raise ValueError("N equals the dimension but D Psi does not vanish; "
                         "the limit correction term is undefined here")
    if math.isinf(N) or N == n:
        return M
    return M - dpsi[:, :, None] * dpsi[:, None, :] / (N - n)


def _ellipse_candidates(norm, M: np.ndarray) -> np.ndarray:
    """Three candidate minimizers of v' M v per node on the F-unit ellipse
    {c + W u : |u| = 1} of a 2D norm, given M_N at the nodes: shape (3, M, 2)."""
    if not isinstance(norm, RandersNorm):  # Euclidean included, at b = 0
        raise TypeError(f"no closed-form unit sphere for {type(norm).__name__}")
    b = norm.b
    B = norm.A - np.outer(b, b)
    c = -np.linalg.solve(B, b)
    W = np.sqrt(1.0 - b @ c) * np.linalg.inv(np.linalg.cholesky(B)).T  # W'BW = r I
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
    return c + np.einsum("mij,cmj->cmi", W @ Q, np.stack([np.cos(theta), np.sin(theta)], -1))


def effective_K(space: WeightedSpace, N: float) -> CurvatureReport:
    """Infimum of Ric_N over the grid nodes and F-unit directions, exact to
    rounding; each call derives Psi's derivatives and solves anew."""
    M = _curvature_forms(space, N)
    if space.dim == 1:
        e = np.array([[1.0], [-1.0]])
        V = np.broadcast_to((e / space.norm.values(e)[:, None])[:, None, :], (2, len(M), 1))
    else:
        V = _ellipse_candidates(space.norm, M)
    vals = np.einsum("mij,cmi,cmj->cm", M, V, V)
    j, k = np.unravel_index(np.argmin(vals), vals.shape)
    return CurvatureReport(K_eff=float(vals[j, k]), argmin_node=int(k),
                           argmin_direction=tuple(float(c) for c in V[j, k]))

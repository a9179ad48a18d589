r"""Discrete differential operators with exact integration by parts.

The differential ``D`` is built from second-order stencils (central in the
interior, one-sided at no-flux boundaries, wrapped on periodic axes).  The
measure divergence is *defined* as the negative adjoint of ``D`` under the
cell-mass inner product:

    sum_i m_i phi_i (div V)_i  =  - sum_i m_i (D phi)_i . V_i     exactly,

i.e. ``div V = -(1/m) * D^T (m V)`` axis by axis.  Every integration-by-parts
manipulation used downstream therefore holds to machine precision on the
grid, including mass conservation of the Laplacian.

On top of D and div sit the Finsler gradient (Legendre transform of the
differential), the nonlinear Laplacian, the linearized operators at a
frozen gradient direction, the second-order quantity

    Gamma2(f) = Lin-Laplacian_{grad f}[ F^2(grad f)/2 ] - D[Lap f](grad f),

the Dirichlet energy, and residual checks for the exponential chain rules
and the two exponential-field identities they imply.  Identity residuals
are measured in the interior (one-sided boundary stencils are lower order);
on periodic domains every node is interior.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .space import WeightedSpace, integrate

__all__ = ["DiffOperators", "gradient_kink_mask", "operators_for"]


def _axis_matrix(n: int, h: float, periodic: bool) -> sp.csr_matrix:
    """Second-order first-derivative matrix along one axis."""
    main = np.zeros(n)
    upper = np.full(n - 1, 1.0 / (2 * h))
    lower = np.full(n - 1, -1.0 / (2 * h))
    D = sp.diags([lower, main, upper], [-1, 0, 1], format="lil")
    if periodic:
        D[0, n - 1] = -1.0 / (2 * h)
        D[n - 1, 0] = 1.0 / (2 * h)
    else:
        D[0, :3] = [-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h)]
        D[n - 1, n - 3:] = [1.0 / (2 * h), -4.0 / (2 * h), 3.0 / (2 * h)]
    return sp.csr_matrix(D)


class LinearizedPattern(NamedTuple):
    """CSC pattern of the linearized Laplacian; see ``_linearized_pattern``."""
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray  # positions of the (i, i) entries in ``data``
    terms: list


def _linearized_pattern(D: list, inv_m: np.ndarray) -> LinearizedPattern:
    """Pattern of sum_ab D_a^T diag(w_ab) D_b, and per term (a, b) the
    ``entries`` it reaches (1/m at their rows) with their products
    c * (w[k] * d) as zero-padded rows in ascending k: summed row by row,
    they round exactly as the sparse products accumulate."""
    n = len(inv_m)
    terms = []
    for a in range(len(D)):
        for b in range(len(D)):
            A, B = D[a].tocoo(), D[b]  # products D_a[k, i] * w_k * D_b[k, j]
            cnt = np.diff(B.indptr)[A.row]
            pa = np.repeat(np.arange(A.nnz), cnt)
            pb = np.arange(cnt.sum()) + np.repeat(B.indptr[A.row] - np.cumsum(cnt) + cnt, cnt)
            k, key = A.row[pa], B.indices[pb].astype(np.int64) * n + A.col[pa]
            order = np.lexsort((k, key))
            key, k, c, d = key[order], k[order], A.data[pa][order], B.data[pb][order]
            new = np.r_[True, key[1:] != key[:-1]]
            seg = np.cumsum(new) - 1
            pos = np.arange(len(key)) - np.flatnonzero(new)[seg]
            # padding multiplies c = d = 0 by a weight the entry already uses
            K = np.tile(k[new], (pos.max() + 1, 1))
            C, Dd = np.zeros(K.shape), np.zeros(K.shape)
            K[pos, seg], C[pos, seg], Dd[pos, seg] = k, c, d
            terms.append((a, b, key[new], inv_m[key[new] % n], K, C, Dd))
    keys = np.unique(np.concatenate([t[2] for t in terms]))  # column-major
    indices = (keys % n).astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    # shared by every matrix built on it: in-place pruning must fail loudly
    indices.flags.writeable = indptr.flags.writeable = False
    terms = [(a, b, np.searchsorted(keys, e), *rest) for a, b, e, *rest in terms]
    return LinearizedPattern(indices, indptr, np.flatnonzero(indices == keys // n), terms)


class DiffOperators:
    """Bundle of discrete operators over one WeightedSpace."""

    #: nodes this close to a no-flux boundary are excluded from "interior";
    #: the adjoint divergence makes boundary nodes carry the no-flux
    #: penalization, and one further differential spreads it one node in
    BOUNDARY_WIDTH = 4

    #: degeneracy threshold on F*(Df): below it the gradient is set to zero
    #: and linearized operators fall back to the metric tensor at the first
    #: axis direction (the metric is undefined on the zero section and some
    #: fixed regularization has to be chosen)
    EPS_GRAD = 1e-10

    def __init__(self, space: WeightedSpace):
        self.space = space
        shape = space.shape
        periodic = space.domain.periodic
        self._D = []
        for a in range(space.dim):
            D1 = _axis_matrix(shape[a], space.h[a], periodic)
            if space.dim == 1:
                D = D1
            elif a == 0:
                D = sp.kron(D1, sp.identity(shape[1]), format="csr")
            else:
                D = sp.kron(sp.identity(shape[0]), D1, format="csr")
            self._D.append(sp.csr_matrix(D))
        self._DT = [sp.csr_matrix(D.T) for D in self._D]
        self._interior = self._interior_mask()

    # ------------------------------------------------------------------
    # first-order operators

    def differential(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        return np.stack([D @ f for D in self._D], axis=1)

    def gradient(self, f: np.ndarray) -> np.ndarray:
        """Legendre transform of the differential, zeroed where degenerate."""
        Df = self.differential(f)
        grad = self.space.norm.legendre_map(Df)
        grad[self._degenerate(Df, grad)] = 0.0
        return grad

    def divergence(self, V: np.ndarray) -> np.ndarray:
        V = np.asarray(V, dtype=float)
        m = self.space.cell_mass
        out = np.zeros(self.space.n_nodes)
        for a in range(self.space.dim):
            out -= self._DT[a] @ (m * V[:, a])
        return out / m

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self.divergence(self.gradient(f))

    # ------------------------------------------------------------------
    # linearized operators at a frozen gradient direction

    def _degenerate(self, Df: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """F*(Df) < EPS_GRAD, read off grad = L*(Df) as F*(Df)^2 = Df . grad."""
        return np.einsum("mi,mi->m", Df, grad) < self.EPS_GRAD ** 2

    def _inverse_metrics_at(self, f: np.ndarray) -> np.ndarray:
        Df = self.differential(f)
        grad = self.space.norm.legendre_map(Df)
        deg = self._degenerate(Df, grad)
        if np.any(deg):
            grad[deg] = np.eye(self.space.dim)[0]
        return self.space.norm.inverse_metric_tensors(grad)

    def linearized_gradient(self, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        Ginv = self._inverse_metrics_at(f)
        Du = self.differential(u)
        return np.einsum("mij,mj->mi", Ginv, Du)

    def linearized_laplacian(self, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.divergence(self.linearized_gradient(f, u))

    @cached_property
    def linearized_pattern(self) -> LinearizedPattern:
        """CSC pattern of ``linearized_laplacian_matrix``, built on first use."""
        return _linearized_pattern(self._D, 1.0 / self.space.cell_mass)

    def linearized_laplacian_matrix(self, f: np.ndarray) -> sp.csc_matrix:
        """Sparse matrix of u -> linearized_laplacian(f, u); the Newton
        Jacobian of the nonlinear Laplacian away from degenerate nodes.
        CSC on the shared ``linearized_pattern`` with fresh ``data``, equal bit
        for bit to sum_ab -(1/m) D_a^T diag(m Ginv_ab) D_b as sparse products,
        except that entries which cancel are stored as zeros."""
        Ginv = self._inverse_metrics_at(f)
        m = self.space.cell_mass
        pat = self.linearized_pattern
        data = np.zeros(len(pat.indices))
        for a, b, entries, inv_m, k, c, d in pat.terms:
            w = m * Ginv[:, a, b]
            acc = np.zeros(len(entries))
            for products in c * (w[k] * d):
                acc += products
            data[entries] += inv_m * -acc
        return sp.csc_matrix((data, pat.indices, pat.indptr), shape=(len(m), len(m)))

    # ------------------------------------------------------------------
    # second-order quantities

    def gamma2(self, f: np.ndarray) -> np.ndarray:
        Df = self.differential(f)
        grad = self.gradient(f)
        f2 = self.space.norm.dual_sq_values(Df)
        t1 = self.linearized_laplacian(f, 0.5 * f2)
        t2 = np.einsum("mi,mi->m", self.differential(self.laplacian(f)), grad)
        return t1 - t2

    def energy(self, f: np.ndarray) -> float:
        Df = self.differential(f)
        return 0.5 * integrate(self.space, self.space.norm.dual_sq_values(Df))

    # ------------------------------------------------------------------
    # interior handling and residual metrics

    def _interior_mask(self) -> np.ndarray:
        if self.space.domain.periodic:
            return np.ones(self.space.n_nodes, dtype=bool)
        w = self.BOUNDARY_WIDTH
        mask = np.ones(self.space.shape, dtype=bool)
        for a in range(self.space.dim):
            sl = [slice(None)] * self.space.dim
            sl[a] = slice(0, w)
            mask[tuple(sl)] = False
            sl[a] = slice(-w, None)
            mask[tuple(sl)] = False
        return mask.reshape(-1)

    @property
    def interior(self) -> np.ndarray:
        return self._interior

    def relative_residual(self, lhs: np.ndarray, rhs: np.ndarray,
                          mask: np.ndarray = None) -> float:
        """max |lhs - rhs| over interior (optionally masked further),
        relative to the interior sup of |rhs|."""
        keep = self._interior if mask is None else (self._interior & mask)
        diff = np.max(np.abs(lhs - rhs)[keep])
        scale = np.max(np.abs(rhs)[keep])
        if scale < 1e-300:
            return float(diff)
        return float(diff / scale)

    # ------------------------------------------------------------------
    # identity residuals for exponential fields

    def identity_exp_chain(self, h: np.ndarray, a: float) -> float:
        """Residual of the chain rules for w = exp(a h), a > 0:
        grad w = a w grad h and Lap w = a w (Lap h + a F^2(grad h))."""
        if a <= 0:
            raise ValueError("a must be positive")
        h = np.asarray(h, dtype=float)
        w = np.exp(a * h)
        gw = self.gradient(w)
        gh = self.gradient(h)
        r1 = self.relative_residual(gw, a * w[:, None] * gh)
        f2 = self.space.norm.dual_sq_values(self.differential(h))
        r2 = self.relative_residual(self.laplacian(w),
                                    a * w * (self.laplacian(h) + a * f2))
        return max(r1, r2)

    def identity_exp_gamma2(self, h: np.ndarray, a: float) -> float:
        """Residual of Gamma2(exp(a h)) against its expansion in h:
        a^2 e^{2ah} { Gamma2(h) + a D[F^2(grad h)](grad h) + a^2 F^4(grad h) }."""
        if a <= 0:
            raise ValueError("a must be positive")
        h = np.asarray(h, dtype=float)
        lhs = self.gamma2(np.exp(a * h))
        gh = self.gradient(h)
        f2 = self.space.norm.dual_sq_values(self.differential(h))
        df2_gh = np.einsum("mi,mi->m", self.differential(f2), gh)
        rhs = a**2 * np.exp(2 * a * h) * (self.gamma2(h) + a * df2_gh + a**2 * f2**2)
        return self.relative_residual(lhs, rhs)

    def identity_exp_bochner_integrals(self, h: np.ndarray, a: float) -> float:
        """Relative gap between int e^{2ah} (Lap h)^2 dm and
        int e^{2ah} { Gamma2(h) + 3a D[F^2](grad h) + 4a^2 F^4 } dm.

        Requires a periodic domain: the derivation chains integration by
        parts through every node, and no-flux boundary stencils would
        pollute the integrals at first order.
        """
        if a < 0:
            raise ValueError("a must be nonnegative")
        if not self.space.domain.periodic:
            raise ValueError("integral identity requires a periodic domain")
        h = np.asarray(h, dtype=float)
        e2 = np.exp(2 * a * h)
        gh = self.gradient(h)
        f2 = self.space.norm.dual_sq_values(self.differential(h))
        df2_gh = np.einsum("mi,mi->m", self.differential(f2), gh)
        lhs = integrate(self.space, e2 * self.laplacian(h) ** 2)
        rhs = integrate(self.space,
                        e2 * (self.gamma2(h) + 3 * a * df2_gh + 4 * a**2 * f2**2))
        scale = max(abs(lhs), abs(rhs))
        if scale < 1e-300:
            return abs(lhs - rhs)
        return abs(lhs - rhs) / scale


def operators_for(space: WeightedSpace) -> DiffOperators:
    """Default operator bundle for a space, built once and memoized."""
    cached = getattr(space, "_default_operators", None)
    if cached is None:
        cached = DiffOperators(space)
        space._default_operators = cached  # idempotent memo, write-once
    return cached


#: nodes by which the excluded band of ``gradient_kink_mask`` is widened
KINK_DILATION = 3


def gradient_kink_mask(ops: DiffOperators, f: np.ndarray) -> np.ndarray:
    """True at nodes safely away from gradient zeros of f.

    Near a sign change of the differential, nodewise quantities built from a
    non-smooth Legendre map carry O(1) stencil artifacts confined to a few
    nodes; callers that need pointwise (not integrated) statements exclude
    this region and report it separately.  The excluded band is where
    F*(Df) dips below a second-difference scale, dilated KINK_DILATION nodes.
    """
    Df = ops.differential(f)
    fd = np.sqrt(ops.space.norm.dual_sq_values(Df))
    curv = 0.0
    for a in range(ops.space.dim):
        curv = max(curv, float(np.max(np.abs(ops._D[a] @ Df[:, a]))))
    thresh = 4.0 * max(ops.space.h) * curv
    excluded = (fd < thresh).reshape(ops.space.shape)
    periodic = ops.space.domain.periodic
    for _ in range(KINK_DILATION):
        grown = excluded.copy()
        for a in range(ops.space.dim):
            if periodic:
                grown |= np.roll(excluded, 1, axis=a) | np.roll(excluded, -1, axis=a)
            else:
                lo = [slice(None)] * ops.space.dim
                hi = [slice(None)] * ops.space.dim
                lo[a] = slice(1, None)
                hi[a] = slice(0, -1)
                grown[tuple(lo)] |= excluded[tuple(hi)]
                grown[tuple(hi)] |= excluded[tuple(lo)]
        excluded = grown
    return ~excluded.reshape(-1)

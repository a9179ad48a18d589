r"""Discrete differential operators with exact integration by parts.

The differential ``D`` is built from second-order stencils (central in the
interior, one-sided at no-flux boundaries, wrapped on periodic axes).  The
measure divergence is *defined* as the negative adjoint of ``D`` under the
cell-mass inner product:

    sum_i m_i phi_i (div V)_i  =  - sum_i m_i (D phi)_i . V_i     exactly,

i.e. ``div V = -(1/m) * D^T (m V)`` axis by axis.  Every integration-by-parts
manipulation used downstream therefore holds to machine precision on the
grid, including mass conservation of the Laplacian.

Each axis has one table of the entries of D along it on the flattened grid,
(row, col, coef) sorted by row and then by column.  D sums each row's terms
with one ``np.bincount`` over rows, D^T each column's with one over columns;
``np.bincount`` adds a bin's terms from 0.0 in input order, which is the
order of a CSR row, so both are bit for bit the sparse products (the oracle
in ``tests/conftest.py``).  The same table gives the pattern of the Newton
Jacobian, the one sparse matrix here, built once per bundle with its
columns in SuperLU's order q, so L[:, q] is assembled and solved as it is;
only ``_column_order`` and ``linearized_laplacian_matrix`` import scipy.
It also gives both node bands of the pointwise statements, each grown over
the entries of D by ``_grow``: the boundary band from the one-sided rows,
the only rows that read their own node, and the kink band from the
gradient zeros.  So the stencils hold the only periodic/no-flux choice
about neighbourhoods.

On top of D and div sit the Finsler gradient (Legendre transform of the
differential), the nonlinear Laplacian, the linearized operators at a
frozen gradient direction, the second-order quantity

    Gamma2(f) = Lin-Laplacian_{grad f}[ F^2(grad f)/2 ] - D[Lap f](grad f),

and the residuals, on periodic grids, of the exponential chain rules and
the two exponential-field identities they imply.

Everything derived from one scalar field f lives on its record, the
``Field`` that ``ops.field(f)`` returns: Df, F*(Df)^2, the Legendre map and
its degenerate nodes (F*(Df) below ``EPS_GRAD`` times its maximum, so a
rescaled f has the same ones), grad f, Lap f, the inverse metrics at grad f,
Gamma2(f) and the nodes of pointwise statements, each computed once on first
use.  Every consumer (the Laplacian, the Newton Jacobian, the identities, the
flow observables, the checkers) reads a record, so a caller that holds one
never evaluates the Legendre map twice.  A record lives exactly as long as
its caller holds it, and so does a bundle: ``operators_for`` shares one only
while a caller or a record holds it, and no space points back to it.  So a
flow of many steps cannot grow memory, no cycle waits for the collector, and
no cache policy is needed; threads that race build two equal bundles.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

import numpy as np

from .norms import cached_attribute
from .space import WeightedSpace, integrate

__all__ = ["DiffOperators", "Field", "gradient_kink_mask", "operators_for"]


def _axis_stencil(n: int, h: float, periodic: bool) -> tuple:
    """Second-order first derivative along one axis as (cols, coef), two
    (n, 3) arrays: row i of D is sum_s coef[i, s] x[cols[i, s]] over its
    terms, cols >= 0, in ascending column.  Rows 1 .. n-2 are central,
    -c x[i-1] + c x[i+1]; the end rows are one-sided (no-flux) or wrap."""
    lo, hi = -1.0 / (2 * h), 1.0 / (2 * h)  # lo == -hi exactly
    i = np.arange(n)
    cols = np.stack([i - 1, i + 1, np.full(n, -1)], axis=1)
    coef = np.zeros((n, 3))
    coef[:, 0], coef[:, 1] = lo, hi
    if periodic:  # an end row's wrapped neighbour comes second in column order
        cols[0, :2], coef[0, :2] = (1, n - 1), (hi, lo)
        cols[-1, :2], coef[-1, :2] = (0, n - 2), (hi, lo)
    else:
        cols[0], coef[0] = (0, 1, 2), (-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h))
        cols[-1] = (n - 3, n - 2, n - 1)
        coef[-1] = (1.0 / (2 * h), -4.0 / (2 * h), 3.0 / (2 * h))
    return cols, coef


def _axis_entries(stencil: tuple, shape: tuple, axis: int) -> tuple:
    """(row, col, coef) of the entries of D along ``axis`` on the flattened
    grid, sorted by row and then by column."""
    cols, coef = stencil
    grid = np.arange(int(np.prod(shape))).reshape(shape)
    ahead = (-1,) + (1,) * (len(shape) - 1 - axis) + (3,)
    reads = np.moveaxis(np.take(grid, np.maximum(cols, 0), axis=axis), axis + 1, -1)
    keep = np.broadcast_to((cols >= 0).reshape(ahead), reads.shape)
    rows = np.broadcast_to(grid[..., None], reads.shape)
    return rows[keep], reads[keep], np.broadcast_to(coef.reshape(ahead), reads.shape)[keep]


def _apply(table: tuple, x: np.ndarray) -> np.ndarray:
    """D x along one axis, each row summed from 0.0 in column order."""
    rows, cols, coef = table
    return np.bincount(rows, coef * x[cols], len(x))


def _grow(D: list, mask: np.ndarray, steps: int) -> np.ndarray:
    """``mask`` grown ``steps`` times over the entries of D: at each step a
    node joins when its row of some D_a reads a marked node."""
    for _ in range(steps):
        reached = sum(np.bincount(rows, mask[cols], len(mask)) for rows, cols, _ in D)
        mask = mask | (reached > 0)
    return mask


class LinearizedPattern(NamedTuple):
    """CSC pattern of the linearized Laplacian with its columns in SuperLU's
    order; see ``_linearized_pattern``.  Every matrix and solve on the bundle
    shares the arrays, so each is read-only and in-place pruning fails loudly."""
    indices: np.ndarray
    indptr: np.ndarray
    diagonal: np.ndarray  # positions of the (i, i) entries in ``data``
    inv_m: np.ndarray  # 1/m at each entry's row
    terms: list
    order: np.ndarray  # SuperLU's COLAMD column order q: column j holds column q[j]


def _linearized_pattern(D: list, inv_m: np.ndarray) -> LinearizedPattern:
    """Pattern of sum_ab D_a^T diag(w_ab) D_b, from the (row, col, value)
    entries of each D_a, and per term (a, b) the factors of its products
    c * (w[k] * d) with the CSC ``entry`` each one reaches, row by row of
    D_a (sorted by row), so ``np.bincount`` adds each entry's products from
    0.0 in ascending k and rounds exactly as the sparse products accumulate.
    Each entry then moves to its ``position`` in L[:, q], q SuperLU's column
    order of the pattern (``_column_order``); a bin keeps its terms' order."""
    n = len(inv_m)
    terms = []
    for a in range(len(D)):
        for b in range(len(D)):
            (arow, acol, aval), (brow, bcol, bval) = D[a], D[b]
            bptr = np.searchsorted(brow, np.arange(n + 1))  # products D_a[k, i] w_k D_b[k, j]
            cnt = np.diff(bptr)[arow]
            pa = np.repeat(np.arange(len(arow)), cnt)
            pb = np.arange(cnt.sum()) + np.repeat(bptr[arow] - np.cumsum(cnt) + cnt, cnt)
            key = bcol[pb].astype(np.int64) * n + acol[pa]
            terms.append((a, b, key, arow[pa], aval[pa], bval[pb]))
    keys = np.unique(np.concatenate([t[2] for t in terms]))  # column-major
    indices = (keys % n).astype(np.int32)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    diagonal = np.flatnonzero(indices == keys // n)
    q = _column_order(indices, indptr, diagonal)
    counts = np.diff(indptr)[q]
    order_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    take = np.arange(len(indices)) + np.repeat(indptr[q] - order_indptr[:-1], counts)
    position = np.argsort(take)  # entry p of L is entry position[p] of L[:, q]
    terms = [(a, b, position[np.searchsorted(keys, key)], *rest) for a, b, key, *rest in terms]
    pattern = LinearizedPattern(indices[take], order_indptr, position[diagonal],
                                inv_m[indices[take]], terms, q)
    for array in pattern:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return pattern


def _column_order(indices: np.ndarray, indptr: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """The column order q in which SuperLU factors a matrix of this pattern
    under ``permc_spec="COLAMD"``: the COLAMD order, then the postorder of
    the column elimination tree, both read off the structure alone, stored
    zeros included.  The pattern stores its columns in this order, and
    solving J[:, q] y = b with ``permc_spec="NATURAL"`` and setting x[q] = y
    is bit for bit ``spsolve(J, b)``.  The values factored here are a
    stand-in, nonsingular on any such pattern: -1 off the diagonal and
    (column count + 1) on it, so every column is strictly diagonally dominant."""
    import scipy.sparse
    from scipy.sparse.linalg import splu

    n = len(indptr) - 1
    data = np.full(len(indices), -1.0)
    data[diagonal] = np.diff(indptr) + 1.0
    stand_in = scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))
    return np.argsort(splu(stand_in, permc_spec="COLAMD").perm_c)


class Field:
    """One scalar field f on an operator bundle.  Each object of the
    Gamma-calculus derived from f is computed once, on first use."""

    def __init__(self, ops: DiffOperators, f: np.ndarray):
        self.ops = ops
        self.f = np.asarray(f, dtype=float)

    @cached_attribute
    def Df(self) -> np.ndarray:
        return self.ops.differential(self.f)

    @cached_attribute
    def dual_sq(self) -> np.ndarray:
        """F*(Df)^2 = F^2(grad f)."""
        return self.ops.space.norm.dual_sq_values(self.Df)

    @cached_attribute
    def legendre(self) -> np.ndarray:
        """L*(Df), also at degenerate nodes."""
        return self.ops.space.norm.legendre_map(self.Df)

    @cached_attribute
    def degenerate(self) -> np.ndarray:
        """F*(Df) <= EPS_GRAD max F*(Df), read off the Legendre map as
        F*(Df)^2 = Df . L*(Df) (so every node where Df vanishes everywhere);
        every node of a constant f, whose one-sided rows leave rounding in Df."""
        fd2 = np.einsum("mi,mi->m", self.Df, self.legendre)
        if self.f.min() == self.f.max():
            return np.ones(len(fd2), dtype=bool)
        return fd2 <= self.ops.EPS_GRAD ** 2 * fd2.max()

    @cached_attribute
    def grad(self) -> np.ndarray:
        """The Finsler gradient: L*(Df), zeroed where degenerate."""
        return np.where(self.degenerate[:, None], 0.0, self.legendre)

    @cached_attribute
    def lap(self) -> np.ndarray:
        return self.ops.divergence(self.grad)

    @cached_attribute
    def dlap_grad(self) -> np.ndarray:
        """D[Lap f](grad f)."""
        return np.einsum("mi,mi->m", self.ops.differential(self.lap), self.grad)

    @cached_attribute
    def Ginv(self) -> np.ndarray:
        """Inverse metric tensors at grad f: the dual metric at Df, and at the
        covector of the first axis direction where degenerate."""
        at = np.where(self.degenerate[:, None], self.ops.fallback_covector, self.Df)
        return self.ops.space.norm.dual_norm.metric_tensors(at)

    @cached_attribute
    def g2(self) -> np.ndarray:
        """Gamma2(f) = Lin-Laplacian_{grad f}[F^2(grad f)/2] - D[Lap f](grad f)."""
        return self.ops.linearized_laplacian(self, 0.5 * self.dual_sq) - self.dlap_grad

    @cached_attribute
    def kink(self) -> np.ndarray:
        """True away from gradient zeros; see ``gradient_kink_mask``."""
        return gradient_kink_mask(self.ops, self)

    @cached_attribute
    def pointwise(self) -> np.ndarray:
        """Nodes of pointwise statements: interior nodes away from gradient
        zeros, or the whole interior if no such node is left."""
        keep = self.ops.interior & self.kink
        return keep if np.any(keep) else self.ops.interior


class DiffOperators:
    """Bundle of discrete operators over one WeightedSpace."""

    #: nodes this close to a no-flux boundary are excluded from "interior":
    #: the one-sided rows grown BOUNDARY_WIDTH - 1 steps over D, so every
    #: node fewer than BOUNDARY_WIDTH nodes from a face (none on periodic
    #: domains); the adjoint divergence makes boundary nodes carry the
    #: no-flux penalization, and one further differential spreads it one
    #: node in
    BOUNDARY_WIDTH = 4

    #: degeneracy threshold on F*(Df), relative to its maximum over the
    #: field: below it the gradient is set to zero and linearized operators
    #: fall back to the metric tensor at the first axis direction (the
    #: metric is undefined on the zero section and some fixed
    #: regularization has to be chosen)
    EPS_GRAD = 1e-10

    def __init__(self, space: WeightedSpace):
        self.space = space
        #: the entry table of D along each axis; see ``_axis_entries``
        self._D = [_axis_entries(_axis_stencil(n, h, space.domain.periodic), space.shape, a)
                   for a, (n, h) in enumerate(zip(space.shape, space.h))]
        # the one-sided rows are the only rows that read their own node
        one_sided = sum(np.bincount(rows, rows == cols, space.n_nodes)
                        for rows, cols, _ in self._D)
        self.interior = ~_grow(self._D, one_sided > 0, self.BOUNDARY_WIDTH - 1)

    def interior_nodes(self, caller: str) -> np.ndarray:
        """``interior``, or a ValueError naming ``caller`` if it is empty."""
        if not self.interior.any():
            raise ValueError(f"{caller}: the grid has no interior node; each no-flux "
                             f"axis needs more than {2 * self.BOUNDARY_WIDTH} nodes")
        return self.interior

    @cached_attribute
    def fallback_covector(self) -> np.ndarray:
        """The covector of the first axis direction, (1, dim): ``Field.Ginv``
        takes the dual metric there at degenerate nodes."""
        norm = self.space.norm
        return norm.covectors(np.eye(norm.dim)[:1])

    def field(self, f: np.ndarray | Field) -> Field:
        """The record of f on this bundle; a record on this space is returned
        unchanged, and one on another space is a ValueError."""
        if not isinstance(f, Field):
            return Field(self, f)
        if f.ops.space is not self.space:
            raise ValueError("field: a Field record built on another space was passed")
        return f

    # ------------------------------------------------------------------
    # first-order operators

    def differential(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float).reshape(-1)
        out = np.empty((len(f), len(self._D)))
        for a, table in enumerate(self._D):
            out[:, a] = _apply(table, f)
        return out

    def divergence(self, V: np.ndarray) -> np.ndarray:
        """-(1/m) sum_a D_a^T (m V_a), bit for bit as ``out -= D_a^T @ (m V_a)``
        from ``out = 0`` over a in order: a column of D gains its terms in
        ascending row, the order of a CSR row of D_a^T."""
        m = self.space.cell_mass
        V = np.asarray(V, dtype=float)
        out = np.zeros(len(m))
        for a, (rows, cols, coef) in enumerate(self._D):
            out -= np.bincount(cols, coef * (m * V[:, a])[rows], len(m))
        return out / m

    def laplacian(self, f: np.ndarray | Field) -> np.ndarray:
        return self.field(f).lap

    # ------------------------------------------------------------------
    # linearized operators at a frozen gradient direction

    def linearized_laplacian(self, f: np.ndarray | Field, u: np.ndarray) -> np.ndarray:
        """div(Ginv(grad f) Du): the Laplacian of u with the metric frozen at grad f."""
        return self.divergence(np.einsum("mij,mj->mi", self.field(f).Ginv,
                                         self.differential(u)))

    @cached_attribute
    def linearized_pattern(self) -> LinearizedPattern:
        """CSC pattern of ``linearized_laplacian_matrix``, built on first use."""
        return _linearized_pattern(self._D, 1.0 / self.space.cell_mass)

    def linearized_laplacian_matrix(self, f: np.ndarray | Field) -> "scipy.sparse.csc_matrix":
        """L[:, q], L the sparse matrix of u -> linearized_laplacian(f, u)
        (the Newton Jacobian away from degenerate nodes) and q its
        ``linearized_pattern.order``: CSC on that shared pattern with fresh
        ``data``, filled by one
        ``np.bincount`` per term (a, b) and equal bit for bit to the sparse
        products sum_ab -(1/m) D_a^T diag(m Ginv_ab) D_b, columns q, except
        that entries which cancel are stored as zeros."""
        import scipy.sparse  # only the Newton solve needs a sparse matrix

        Ginv = self.field(f).Ginv
        m = self.space.cell_mass
        pat = self.linearized_pattern
        data = np.zeros(len(pat.indices))
        for a, b, entry, k, c, d in pat.terms:
            w = m * Ginv[:, a, b]
            data += pat.inv_m * -np.bincount(entry, c * (w[k] * d), len(data))
        return scipy.sparse.csc_matrix((data, pat.indices, pat.indptr), shape=(len(m), len(m)))

    # ------------------------------------------------------------------
    # identity residuals for exponential fields

    def identity_residuals(self, h: np.ndarray | Field, a: float) -> dict:
        """Residuals of three identities for w = exp(a h), a > 0, on a
        periodic grid, keyed by name:

        * ``exp_chain``: the chain rules grad w = a w grad h and
          Lap w = a w (Lap h + a F^2(grad h)), the larger of the two;
        * ``exp_gamma2``: Gamma2(w) against its expansion in h,
          a^2 e^{2ah} { Gamma2(h) + a D[F^2(grad h)](grad h) + a^2 F^4(grad h) };
        * ``exp_bochner_integrals``: the relative gap between
          int e^{2ah} (Lap h)^2 dm and
          int e^{2ah} { Gamma2(h) + 3a D[F^2](grad h) + 4a^2 F^4 } dm.

        The nodal residuals are max |lhs - rhs| relative to max |rhs|.  The
        integral identity chains integration by parts through every node,
        and no-flux boundary stencils would pollute it at first order, so a
        no-flux grid is a ValueError, as is a <= 0.
        """
        if a <= 0:
            raise ValueError("identity_residuals: a must be positive")
        if not self.space.domain.periodic:
            raise ValueError("identity_residuals: the identities need a periodic domain")
        h = self.field(h)
        w = self.field(np.exp(a * h.f))
        e2 = np.exp(2 * a * h.f)
        df2 = np.einsum("mi,mi->m", self.differential(h.dual_sq), h.grad)  # D[F^2](grad h)
        f4 = h.dual_sq ** 2
        lhs = integrate(self.space, e2 * h.lap ** 2)
        rhs = integrate(self.space, e2 * (h.g2 + 3 * a * df2 + 4 * a**2 * f4))
        scale = max(abs(lhs), abs(rhs))
        return {
            "exp_chain": max(_relative_residual(w.grad, a * w.f[:, None] * h.grad),
                             _relative_residual(w.lap, a * w.f * (h.lap + a * h.dual_sq))),
            "exp_gamma2": _relative_residual(w.g2, a**2 * e2 * (h.g2 + a * df2 + a**2 * f4)),
            "exp_bochner_integrals": abs(lhs - rhs) / scale if scale >= 1e-300 else abs(lhs - rhs),
        }


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max |lhs - rhs| relative to max |rhs|, or absolute if rhs vanishes."""
    diff = np.max(np.abs(lhs - rhs))
    scale = np.max(np.abs(rhs))
    return float(diff) if scale < 1e-300 else float(diff / scale)


_BUNDLES = weakref.WeakValueDictionary()  # id(space) -> a held bundle, which holds it


def operators_for(space: WeightedSpace) -> DiffOperators:
    """The bundle of ``space`` that something holds, else a new one."""
    ops = _BUNDLES.get(id(space))
    if ops is None:
        ops = _BUNDLES[id(space)] = DiffOperators(space)
    return ops


#: nodes by which the excluded band of ``gradient_kink_mask`` is widened
KINK_DILATION = 3


def gradient_kink_mask(ops: DiffOperators, f: np.ndarray | Field) -> np.ndarray:
    """True at nodes safely away from gradient zeros of f.

    Near a sign change of the differential, nodewise quantities built from a
    non-smooth Legendre map carry O(1) stencil artifacts confined to a few
    nodes; callers that need pointwise (not integrated) statements exclude
    this region and report it separately.  The excluded band is where
    F*(Df) dips below a second-difference scale, grown KINK_DILATION steps
    over the entries of D (``_grow``), so KINK_DILATION nodes along each
    axis.  A no-flux end node joins one step early, since its one-sided row
    also reads the node two steps in; every caller reads the mask only
    together with ``ops.interior``, which excludes the end nodes.
    """
    f = ops.field(f)
    fd = np.sqrt(f.dual_sq)
    curv = 0.0
    for a, table in enumerate(ops._D):
        curv = max(curv, float(np.max(np.abs(_apply(table, f.Df[:, a])))))
    thresh = 4.0 * max(ops.space.h) * curv
    return ~_grow(ops._D, fd < thresh, KINK_DILATION)

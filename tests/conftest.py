from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sparse

from finslergamma import (AsymNorm1D, Domain, EuclideanNorm, MinkowskiNorm, RandersNorm,
                          build_space)
from finslergamma.inequalities import _normalize_member
from finslergamma.norms import cached_attribute


# values that a guard requiring a finite number > 0 must reject
NOT_FINITE_POSITIVE = [pytest.param(np.nan, id="nan"), pytest.param(np.inf, id="inf"),
                       pytest.param(-1.0, id="negative")]


def euclid(dim=1):
    return EuclideanNorm(np.eye(dim))


def asym21():
    return AsymNorm1D(2.0, 1.0)


def oblique_randers():
    """Randers norm with a non-diagonal A and an oblique drift."""
    return RandersNorm(np.array([[1.3, 0.4], [0.4, 0.8]]), (0.5, -0.3))


@dataclass(frozen=True)
class TwoSlopeSum(MinkowskiNorm):
    """The l2 sum of two two-slope norms on R^2, F^2(v) = F_1^2(v_1) + F_2^2(v_2):
    a non-reversible norm under which a box is the product of two intervals.
    Its covector is c * v and g_v = diag(c), with c_a = alpha_a^2 or beta_a^2
    by the sign of v_a; its dual is the same sum of the two duals."""

    x: AsymNorm1D
    y: AsymNorm1D

    dim = 2

    def _slopes_sq(self, V):
        V = np.asarray(V, dtype=float)
        return np.stack([F.metric_tensors(V[:, [a]])[:, 0, 0]
                         for a, F in enumerate((self.x, self.y))], axis=1)

    def values(self, V):
        V = np.asarray(V, dtype=float)
        return np.sqrt(np.einsum("mi,mi->m", V, self.covectors(V)))

    def covectors(self, V):
        return self._slopes_sq(V) * V

    def metric_tensors(self, V):
        return self._slopes_sq(V)[:, :, None] * np.eye(2)

    @cached_attribute
    def dual_norm(self) -> "TwoSlopeSum":
        return TwoSlopeSum(self.x.dual_norm, self.y.dual_norm)

    def reverse(self) -> "TwoSlopeSum":
        return TwoSlopeSum(self.x.reverse(), self.y.reverse())


def gauss_interval(norm, length=6.0, res=256):
    return build_space(Domain("interval", (length,), (res,)), norm, "x**2/2")


def uniform_circle(norm, length=1.0, res=128):
    return build_space(Domain("circle", (length,), (res,)), norm, "0")


def dirac(space, point):
    """The unit point mass at the node nearest to ``point``."""
    mu = np.zeros(space.n_nodes)
    mu[np.argmin(np.sum((space.coords - point) ** 2, axis=1))] = 1.0
    return mu


def formula_axis_coords(domain, axis):
    """The oracle for an axis's nodes: ``Domain.axis_coords`` before the
    per-axis grid."""
    L, n = domain.lengths[axis], domain.resolution[axis]
    if domain.periodic:
        return (L / n) * np.arange(n)
    return -L / 2 + (L / (n - 1)) * np.arange(n)


def formula_axis_spacing(domain, axis):
    """The oracle for an axis's spacing: ``Domain.axis_spacing`` before the
    per-axis grid."""
    L, n = domain.lengths[axis], domain.resolution[axis]
    return L / n if domain.periodic else L / (n - 1)


def sliced_cell_volumes(domain):
    """The oracle for the cell volumes: every face of a no-flux grid halved
    with slices, then scaled by the product of the spacings."""
    cell = np.ones(domain.resolution)
    if not domain.periodic:
        for a in range(domain.dim):
            sl = [slice(None)] * domain.dim
            for edge in (0, -1):
                sl[a] = edge
                cell[tuple(sl)] *= 0.5
    h = tuple(formula_axis_spacing(domain, a) for a in range(domain.dim))
    cell *= float(np.prod(h))
    return cell


def branched_bank(space, seed=0, size=12):
    """The oracle for ``make_test_bank``: its construction before the noise
    loop ran over the axes, with the second axis's modes in a 2D branch."""
    if size < 1:
        raise ValueError("bank size must be >= 1")
    x = space.coords[:, 0]
    Lx = space.domain.lengths[0]
    raw = []
    if space.dim == 1:
        raw += [
            ("linear", x),
            ("quadratic", x**2),
            ("cubic", x**3),
            ("mode-sin1", np.sin(2 * np.pi * x / Lx)),
            ("mode-cos1", np.cos(2 * np.pi * x / Lx)),
            ("mode-sin2", np.sin(4 * np.pi * x / Lx)),
            ("tilt-pos", np.exp(1.6 * x / Lx)),
            ("tilt-neg", np.exp(-1.2 * x / Lx)),
            ("bump", np.exp(-((x - 0.1 * Lx) / (0.15 * Lx)) ** 2)),
        ]
    else:
        y = space.coords[:, 1]
        Ly = space.domain.lengths[1]
        raw += [
            ("linear-x", x),
            ("linear-y", y),
            ("mode-x", np.sin(2 * np.pi * x / Lx)),
            ("mode-y", np.cos(2 * np.pi * y / Ly)),
            ("mode-xy", np.sin(2 * np.pi * x / Lx) * np.cos(2 * np.pi * y / Ly)),
            ("tilt", np.exp(0.8 * (x / Lx + y / Ly))),
            ("bump", np.exp(-((x / (0.2 * Lx)) ** 2 + (y / (0.2 * Ly)) ** 2))),
        ]
    rng = np.random.default_rng(seed)
    members = []
    for label, f in raw:
        g = _normalize_member(space, f)
        if g is not None:
            members.append((label, g))
        if len(members) == size:
            break
    k = 0
    while len(members) < size:
        modes = np.arange(1, 5)
        f = np.zeros(space.n_nodes)
        for m in modes:
            a, b = rng.standard_normal(2) / m**2
            f = f + a * np.cos(2 * np.pi * m * x / Lx) + b * np.sin(2 * np.pi * m * x / Lx)
            if space.dim == 2:
                c, d = rng.standard_normal(2) / m**2
                f = f + c * np.cos(2 * np.pi * m * y / Ly) + d * np.sin(2 * np.pi * m * y / Ly)
        g = _normalize_member(space, f)
        if g is not None:
            members.append((f"noise-{k}", g))
        k += 1
    return tuple(members)


def _axis_matrix(n, h, periodic):
    """Second-order first-derivative matrix along one axis, built entry by entry."""
    main = np.zeros(n)
    upper = np.full(n - 1, 1.0 / (2 * h))
    lower = np.full(n - 1, -1.0 / (2 * h))
    D = sparse.diags([lower, main, upper], [-1, 0, 1], format="lil")
    if periodic:
        D[0, n - 1] = -1.0 / (2 * h)
        D[n - 1, 0] = 1.0 / (2 * h)
    else:
        D[0, :3] = [-3.0 / (2 * h), 4.0 / (2 * h), -1.0 / (2 * h)]
        D[n - 1, n - 3:] = [1.0 / (2 * h), -4.0 / (2 * h), 3.0 / (2 * h)]
    return sparse.csr_matrix(D)


def csr_derivatives(space):
    """The oracle for the stencil operators: D along each axis as a CSR
    matrix on the flattened grid (Kronecker products with the identity in
    2D), and D^T of each."""
    shape, periodic = space.shape, space.domain.periodic
    D = []
    for a in range(space.dim):
        D1 = _axis_matrix(shape[a], space.h[a], periodic)
        if space.dim == 1:
            Da = D1
        elif a == 0:
            Da = sparse.kron(D1, sparse.identity(shape[1]), format="csr")
        else:
            Da = sparse.kron(sparse.identity(shape[0]), D1, format="csr")
        D.append(sparse.csr_matrix(Da))
    return D, [sparse.csr_matrix(Da.T) for Da in D]


def sliced_interior(space, width):
    """The oracle for ``DiffOperators.interior``: every node at least
    ``width`` nodes from each no-flux face, cut out with slices."""
    interior = np.ones(space.shape, dtype=bool)
    if not space.domain.periodic:
        w = width
        for a in range(space.dim):
            for band in (slice(0, w), slice(-w, None)):
                edges = [slice(None)] * space.dim
                edges[a] = band
                interior[tuple(edges)] = False
    return interior.reshape(-1)


def rolled_kink_mask(ops, f, dilation):
    """The oracle for ``gradient_kink_mask``: the band F*(Df) < thresh,
    dilated ``dilation`` nodes along each axis by rolls (periodic) or by
    shifted slices (no-flux)."""
    f = ops.field(f)
    fd = np.sqrt(f.dual_sq)
    curv = 0.0
    for a in range(ops.space.dim):
        curv = max(curv, float(np.max(np.abs(ops.differential(f.Df[:, a])[:, a]))))
    thresh = 4.0 * max(ops.space.h) * curv
    excluded = (fd < thresh).reshape(ops.space.shape)
    periodic = ops.space.domain.periodic
    for _ in range(dilation):
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


def summed_products_matrix(ops, f):
    """linearized_laplacian_matrix as the sum over (a, b) of the sparse
    products -(1/m) D_a^T diag(m Ginv_ab) D_b, pruned of exact zeros."""
    D, DT = csr_derivatives(ops.space)
    Ginv = ops.field(f).Ginv
    m = ops.space.cell_mass
    inv_m = sparse.diags(1.0 / m)
    L = None
    for a in range(ops.space.dim):
        for b in range(ops.space.dim):
            coef = sparse.diags(m * Ginv[:, a, b])
            term = inv_m @ (-(DT[a] @ (coef @ D[b])))
            L = term if L is None else L + term
    return sparse.csc_matrix(L)


@pytest.fixture(scope="session")
def euclid_gauss6():
    return gauss_interval(euclid())


@pytest.fixture(scope="session")
def asym_gauss6():
    return gauss_interval(asym21())


@pytest.fixture(scope="session")
def euclid_gauss2():
    return gauss_interval(euclid(), length=2.0, res=192)


@pytest.fixture(scope="session")
def asym_gauss2():
    return gauss_interval(asym21(), length=2.0, res=192)


@pytest.fixture(scope="session")
def euclid_circle():
    return uniform_circle(euclid())


@pytest.fixture(scope="session")
def asym_circle():
    return uniform_circle(asym21())

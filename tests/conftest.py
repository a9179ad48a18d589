import numpy as np
import pytest
import scipy.sparse as sparse

from finslergamma import AsymNorm1D, Domain, EuclideanNorm, RandersNorm, build_space


def euclid(dim=1):
    return EuclideanNorm(np.eye(dim))


def asym21():
    return AsymNorm1D(2.0, 1.0)


def oblique_randers():
    """Randers norm with a non-diagonal A and an oblique drift."""
    return RandersNorm(np.array([[1.3, 0.4], [0.4, 0.8]]), (0.5, -0.3))


def gauss_interval(norm, length=6.0, res=256):
    return build_space(Domain("interval", (length,), (res,)), norm, "x**2/2")


def uniform_circle(norm, length=1.0, res=128):
    return build_space(Domain("circle", (length,), (res,)), norm, "0")


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

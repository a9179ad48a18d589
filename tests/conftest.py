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


def summed_products_matrix(ops, f):
    """linearized_laplacian_matrix as the sum over (a, b) of the sparse
    products -(1/m) D_a^T diag(m Ginv_ab) D_b, pruned of exact zeros."""
    Ginv = ops.field(f).Ginv
    m = ops.space.cell_mass
    inv_m = sparse.diags(1.0 / m)
    L = None
    for a in range(ops.space.dim):
        for b in range(ops.space.dim):
            coef = sparse.diags(m * Ginv[:, a, b])
            term = inv_m @ (-(ops._DT[a] @ (coef @ ops._D[b])))
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

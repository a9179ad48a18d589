"""Product spaces: exact oracles for the 2D path from two 1D spaces.

A box whose norm splits over the axes, with Psi(x, y) = Psi_1(x) + Psi_2(y),
is the product of two intervals: its cell masses are the outer product of
theirs, each axis's D acts on its own axis, and the Laplacian of an additive
field is the sum of the two 1D Laplacians.  So the 2D path must give the 1D
numbers: K(inf) is the smaller of the two factors' (Ric_inf of a product is
the minimum over its factors), the generalized eigenvalues of D^T M D are the
sums of the factors' (the operator is their Kronecker sum), the flow of
a(x) + b(y) is the sum of the two 1D flows, the Poincare constant is the
larger of the factors' constants, and every checker reads an x-only field as
the x-factor does (Bakry-Gentil-Ledoux 2014, Prop. 4.3.1 and 5.2.7).

Two products are used: a diagonal Euclidean norm, and the l2 sum of two
two-slope norms (``conftest.TwoSlopeSum``), which holds the non-reversible 2D
Newton path to the 1D one.  ``talagrand`` is left out: the 2D transport cost
is a coarse LP, not the exact 1D quantile cost.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from finslergamma import (AsymNorm1D, Domain, EuclideanNorm, FlowParams, build_space,
                          effective_K, estimate_poincare_constant, evolve, make_test_bank,
                          operators_for)
from finslergamma.inequalities import CHECKER_IDS, run_checker_matrix, runs_at

from conftest import TwoSlopeSum

INF = math.inf


def _product(norm, norm_x, norm_y, psi, psi_x, psi_y, length, n):
    """(the box, its x-factor, its y-factor), Psi(x, y) = psi_x(x) + psi_y(y)
    and each factor's Psi written in its own coordinate x."""
    interval = Domain("interval", (length,), (n,))
    return (build_space(Domain("box", (length, length), (n, n)), norm, psi),
            build_space(interval, norm_x, psi_x), build_space(interval, norm_y, psi_y))


# name -> (box, x-factor, y-factor)
PRODUCTS = {
    "euclidean": _product(EuclideanNorm(np.diag([1.0, 1.5])), EuclideanNorm([[1.0]]),
                          EuclideanNorm([[1.5]]), "x**2/2 + 0.05*x**4 + y**2 + 0.1*y**4",
                          "x**2/2 + 0.05*x**4", "x**2 + 0.1*x**4", 4.0, 24),
    "two-slope": _product(TwoSlopeSum(AsymNorm1D(2.0, 1.0), AsymNorm1D(1.0, 1.5)),
                          AsymNorm1D(2.0, 1.0), AsymNorm1D(1.0, 1.5),
                          "x**2/2 + y**2/2 + 0.1*y**4", "x**2/2", "x**2/2 + 0.1*x**4",
                          4.0, 32),
}


def _additive(a, b):
    """a(x) + b(y) on the box's flat node order, the first axis slowest."""
    return np.add.outer(a, b).reshape(-1)


def _relative(got, expected):
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


def test_two_slope_sum_is_the_l2_sum_with_its_dual():
    norm = PRODUCTS["two-slope"][0].norm
    V = np.random.default_rng(0).standard_normal((20, 2))
    assert np.allclose(norm.values(V) ** 2,
                       norm.x.values(V[:, :1]) ** 2 + norm.y.values(V[:, 1:]) ** 2, rtol=1e-14)
    assert np.allclose(np.einsum("mij,mj->mi", norm.metric_tensors(V), V),
                       norm.covectors(V), rtol=1e-15)
    # F(L*a) = F*(a) and a(L*a) = F*(a)^2, relative
    L, fstar_sq = norm.legendre_map(V), norm.dual_sq_values(V)
    assert np.all(np.abs(norm.values(L) - np.sqrt(fstar_sq)) <= 1e-10 * np.sqrt(fstar_sq))
    assert np.all(np.abs(np.einsum("mi,mi->m", V, L) - fstar_sq) <= 1e-10 * fstar_sq)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_cell_mass_is_the_outer_product_of_the_factors(name):
    box, sx, sy = PRODUCTS[name]
    outer = np.multiply.outer(sx.cell_mass, sy.cell_mass).reshape(-1)
    assert np.max(np.abs(box.cell_mass / outer - 1.0)) <= 1e-14


def test_K_inf_is_the_smaller_factor_K():
    # the 2D ellipse solve against the 1D two-direction evaluation
    box, sx, sy = PRODUCTS["euclidean"]
    factor_K = min(effective_K(sx, INF).K_eff, effective_K(sy, INF).K_eff)
    assert math.isclose(effective_K(box, INF).K_eff, factor_K, rel_tol=1e-12)


def _spectrum(space):
    """Generalized eigenvalues of D^T M D phi = lambda M phi, from the
    Laplacian of each unit vector: the Euclidean Laplacian is linear, and
    D^T M D is -M times it."""
    ops = operators_for(space)
    lap = np.stack([ops.laplacian(e) for e in np.eye(space.n_nodes)], axis=1)
    S = -space.cell_mass[:, None] * lap
    return scipy.linalg.eigh(0.5 * (S + S.T), np.diag(space.cell_mass), eigvals_only=True)


def test_spectrum_is_the_sums_of_the_factor_spectra():
    # the six smallest nonzero values include the odd-even ones, 0.032, 0.232
    # and 0.265, below the smooth 1.436
    box, sx, sy = PRODUCTS["euclidean"]
    sums = np.sort(np.add.outer(_spectrum(sx), _spectrum(sy)).reshape(-1))[1:7]
    assert sums[0] < 0.05 and sums[3] > 1.4
    assert np.max(np.abs(_spectrum(box)[1:7] / sums - 1.0)) <= 1e-10


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_poincare_estimate_is_the_larger_factor_estimate(name):
    # the constant of a product is max(C_1, C_2): a function of the factor
    # with the larger constant, lifted to the box, attains it
    box, sx, sy = PRODUCTS[name]
    factor = max(estimate_poincare_constant(sx), estimate_poincare_constant(sy))
    assert math.isclose(estimate_poincare_constant(box), factor, rel_tol=1e-12)


# name -> the additive datum's two parts, as functions of the factor's node
# coordinate: each has a turning point, so the two-slope flow crosses its kinks
DATA = {
    "euclidean": (lambda x: np.cos(np.pi * x / 4) + 0.3 * x, lambda x: np.sin(np.pi * x / 4)),
    "two-slope": (lambda x: np.cos(np.pi * x / 4) + 0.2 * x,
                  lambda x: np.cos(np.pi * x / 2) - 0.1 * x),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_flow_of_an_additive_datum_is_the_sum_of_the_factor_flows(name):
    box, sx, sy = PRODUCTS[name]
    a, b = (part(s.coords[:, 0]) for part, s in zip(DATA[name], (sx, sy)))
    params = FlowParams(tau=1e-3, t_end=0.02)
    flows = [evolve(operators_for(s), u0, params)
             for s, u0 in ((box, _additive(a, b)), (sx, a), (sy, b))]
    assert len(flows[0]) == 21
    for k, (p, q, r) in enumerate(zip(*flows)):
        assert p.t == q.t == r.t
        assert _relative(p.u, _additive(q.u, r.u)) <= 1e-13, k
    assert _relative(flows[0][-1].u, flows[0][0].u) > 1e-3  # the flow moved


@pytest.mark.parametrize("N", [8.0, INF])
def test_checkers_read_an_x_only_member_as_its_x_factor(N):
    # the 2D curvature solve takes Randers norms only, so both sides get
    # the x-factor's K
    box, sx, _ = PRODUCTS["two-slope"]
    checkers = [c for c in CHECKER_IDS if c != "talagrand"]
    bank = make_test_bank(sx, seed=0)
    lifted = [(label, np.repeat(g, box.shape[1])) for label, g in bank]
    K = effective_K(sx, N).K_eff
    reports = run_checker_matrix(sx, [N], checkers, bank=bank, override_K=K)
    images = run_checker_matrix(box, [N], checkers, bank=lifted, override_K=K)
    assert len(reports) == len(images) > 0
    assert {rep.checker for rep in reports} == {c for c in checkers if runs_at(c, N, K)}
    for rep, img in zip(reports, images):
        where = (rep.checker, rep.N, rep.metadata["member"])
        assert (img.checker, img.N, img.metadata["member"]) == where
        assert math.isclose(img.lhs, rep.lhs, rel_tol=1e-10), where
        assert math.isclose(img.rhs, rep.rhs, rel_tol=1e-10), where
        assert img.passed == rep.passed, where

"""Exact structure on drawn spaces.

Adjointness, mass conservation of the Laplacian and the Legendre identities
hold to rounding on every grid, so they are asserted on spaces drawn by
``hypothesis``: a geometry, 8-40 nodes and a length of 0.5-8 per axis, a
two-slope or Randers norm (drift below 0.95) and a cubic Psi.  The draws are
derandomized and few, so the suite is reproducible and fast.  A space whose
cell mass underflows is rejected at build, which is correct behaviour, so
that draw is skipped.  A few implicit steps of the heat flow run on spaces
whose Psi is scaled to a range of at most 20: Newton is known to fail on
some steeper weights, an open defect.  On the 2D and periodic spaces the
transport LP of each bank member's measure onto m is solved and bracketed by
0 and the monotone coupling of the coarse measures, a feasible plan.

``effective_K`` is attained: its direction is F-unit, the node's curvature
form reads K there, and no F-unit direction of a dense sampling reads lower.

The scaling maps of ``test_metamorphic``, x -> 2x and F -> 2F, are exact on
every drawn space too: K becomes K/4 and both sides of each report scale by
a fixed power of two.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from finslergamma import (AsymNorm1D, Domain, FlowParams, RandersNorm, build_space,
                          curvature, effective_K, evolve, integrate, operators_for,
                          run_checker_matrix)
from finslergamma.cli import ADJOINTNESS_TOL, _adjointness_residual
from finslergamma.inequalities import CHECKER_IDS, _measure_from_member, make_test_bank
from finslergamma.transport import (_monotone_pieces, _pair_cost_matrix, coarsen_measure,
                                    transport_cost_sq)

from test_metamorphic import SIDE_SCALES

_GEOMETRY_DIM = {"interval": 1, "circle": 1, "box": 2, "torus": 2}

_coefficient = st.floats(-1.0, 1.0)


@st.composite
def _norms(draw, dim):
    if dim == 1 and draw(st.booleans()):
        return AsymNorm1D(draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0)))
    # A = R diag(eig) R', b = drift * chol(A) u with |u| = 1, so |b|_{A^-1} = drift
    eig = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=dim, max_size=dim)))
    turn, angle = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi))
    R = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])[:dim, :dim]
    A = R @ np.diag(eig) @ R.T
    A = (A + A.T) / 2
    u = np.array([np.cos(angle), np.sin(angle)])[:dim]
    u = u / np.linalg.norm(u)
    drift = draw(st.floats(0.0, 0.95, exclude_max=True))
    return RandersNorm(A, drift * np.linalg.cholesky(A) @ u)


@st.composite
def spaces(draw, psi_range=None, geometries=tuple(_GEOMETRY_DIM)):
    geometry = draw(st.sampled_from(sorted(geometries)))
    dim = _GEOMETRY_DIM[geometry]
    resolution = tuple(draw(st.integers(8, 40)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.5, 8.0)) for _ in range(dim))
    psi = " + ".join(f"({draw(_coefficient)!r})*{t}**{p}"
                     for t in "xy"[:dim] for p in (1, 2, 3))
    try:
        space = build_space(Domain(geometry, lengths, resolution), draw(_norms(dim)), psi)
    except ValueError:
        assume(False)  # the cell mass underflows: a correct build rejection
    if psi_range is not None and np.ptp(space.psi) > psi_range:
        space = build_space(space.domain, space.norm, space.psi * (psi_range / np.ptp(space.psi)))
    return space


# relative tolerance on the Legendre identities
IDENTITY_TOL = 1e-10

_SETTINGS = settings(max_examples=25, derandomize=True, database=None, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(space=spaces(), seed=st.integers(0, 2**16))
def test_divergence_is_the_adjoint_of_the_differential(space, seed):
    ops = operators_for(space)
    assert _adjointness_residual(ops, np.random.default_rng(seed)) <= ADJOINTNESS_TOL


@_SETTINGS
@given(space=spaces(), seed=st.integers(0, 2**16))
def test_the_laplacian_conserves_mass(space, seed):
    ops = operators_for(space)
    for label, g in make_test_bank(space, seed=seed, size=6):
        lap = ops.field(g).lap
        assert abs(integrate(space, lap)) <= 1e-13 * integrate(space, np.abs(lap)), label


@_SETTINGS
@given(space=spaces(), seed=st.integers(0, 2**16))
def test_legendre_identities_hold_at_every_node(space, seed):
    ops = operators_for(space)
    norm = space.norm
    for label, g in make_test_bank(space, seed=seed, size=6):
        a = ops.differential(g)
        a = a[np.any(a != 0, axis=1)]
        v = norm.legendre_map(a)
        fstar_sq = norm.dual_sq_values(a)
        # F(L*(a)) = F*(a) and a(L*(a)) = F*(a)^2, relative
        assert np.max(np.abs(norm.values(v) - np.sqrt(fstar_sq)) / np.sqrt(fstar_sq)) \
            <= IDENTITY_TOL, label
        assert np.max(np.abs(np.einsum("mi,mi->m", a, v) - fstar_sq) / fstar_sq) \
            <= IDENTITY_TOL, label


@_SETTINGS
@given(space=spaces(psi_range=20.0), seed=st.integers(0, 2**16),
       tau=st.floats(1e-4, 1e-2))
def test_a_few_flow_steps_conserve_mass(space, seed, tau):
    # four steps: one from u0, one from the linear and two from the
    # quadratic extrapolation of the states before
    u0 = 1.0 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, space.n_nodes)
    states = evolve(operators_for(space), u0, FlowParams(tau=tau, t_end=4 * tau))
    assert len(states) == 5
    mass0 = integrate(space, u0)
    for s in states:
        assert abs(integrate(space, s.u) - mass0) <= 1e-14 * mass0


@pytest.mark.parametrize("dim", [1, 2])
@_SETTINGS
@given(data=st.data())
def test_effective_K_is_attained_and_below_every_unit_direction(dim, data):
    space = data.draw(spaces(geometries=[g for g, d in _GEOMETRY_DIM.items() if d == dim]))
    # both unit vectors in 1D, 2000 equiangular directions on the 2D unit sphere
    theta = 2 * np.pi * np.arange(2000) / 2000
    d = np.array([[1.0], [-1.0]]) if dim == 1 else np.stack([np.cos(theta), np.sin(theta)], 1)
    d = d / space.norm.values(d)[:, None]
    for N in (-5.0, dim + 0.5, 8.0, math.inf):
        rep = effective_K(space, N)
        M = curvature._curvature_forms(space, N)
        v = np.array(rep.argmin_direction)
        assert space.norm.values(v[None, :])[0] == pytest.approx(1.0, abs=1e-12), N
        assert v @ M[rep.argmin_node] @ v == pytest.approx(rep.K_eff, rel=1e-10, abs=1e-12), N
        dense = np.einsum("mij,ki,kj->mk", M, d, d).min()
        assert rep.K_eff <= dense + 1e-13 * (1.0 + abs(rep.K_eff)), N


# 50 draws: the first that HiGHS presolve called infeasible (coarse masses
# below its feasibility tolerance, although mu x nu is a feasible plan) comes
# after the 40th
@settings(_SETTINGS, max_examples=50)
@given(space=spaces(geometries=("circle", "box", "torus")), seed=st.integers(0, 2**16))
def test_the_transport_lp_is_solved_and_bracketed(space, seed):
    ops = operators_for(space)
    ys, wy = coarsen_measure(space, space.cell_mass)
    for label, g in make_test_bank(space, seed=seed, size=6):
        mu = _measure_from_member(ops.field(g))
        cost = transport_cost_sq(space, mu, space.cell_mass)
        xs, wx = coarsen_measure(space, mu)
        C = _pair_cost_matrix(space, xs, ys)
        moved, source, target = _monotone_pieces(wx, wy)
        assert 0.0 <= cost <= moved @ C[source, target] + 1e-12 * max(1.0, C.max()), label


def _doubled(norm):
    """2F, exactly: every entry scales by a power of two."""
    if isinstance(norm, AsymNorm1D):
        return AsymNorm1D(2.0 * norm.alpha, 2.0 * norm.beta)
    return RandersNorm(4.0 * norm.A, 2.0 * norm.b)


@pytest.mark.parametrize("scaling", ["stretch", "double-norm"])
@_SETTINGS
@given(space=spaces(), seed=st.integers(0, 2**16))
def test_scaling_maps_K_and_every_report_exactly(scaling, space, seed):
    domain = space.domain
    if scaling == "stretch":  # node 2x carries Psi(x): the same nodal array
        stretched = Domain(domain.geometry, tuple(2 * L for L in domain.lengths),
                           domain.resolution)
        image = build_space(stretched, space.norm, space.psi)
    else:
        image = build_space(domain, _doubled(space.norm), space.psi)
    # left out: bochner_pointwise, whose kink band moves under F -> 2F and
    # which a no-flux axis of 8 nodes leaves no interior node; talagrand
    # off an interval, where its cost is an LP that the maps move by an ulp
    no_interior = not domain.periodic and min(domain.resolution) <= 8
    lp = domain.geometry != "interval"
    checkers = [c for c in CHECKER_IDS if not (c == "talagrand" and lp) and not (
        c == "bochner_pointwise" and (scaling == "double-norm" or no_interior))]
    bank = make_test_bank(space, seed=seed, size=4)
    reports, images = [], []
    for N in (space.dim + 2.0, math.inf):
        K = effective_K(space, N).K_eff
        assert effective_K(image, N).K_eff == K / 4, N
        # most drawn weights have K <= 0, where only the Bochner checkers
        # run; there both sides get K = 1 and 1/4, so that every one runs
        K = K if K > 0 else 1.0
        reports += run_checker_matrix(space, [N], checkers, bank=bank, override_K=K)
        images += run_checker_matrix(image, [N], checkers, bank=bank, override_K=K / 4)
    assert len(reports) == len(images) > 0
    for rep, img in zip(reports, images):
        where = (rep.checker, rep.N, rep.metadata["member"])
        assert (img.checker, img.N, img.metadata["member"]) == where
        scale = SIDE_SCALES.get(rep.checker, 1.0)
        assert (img.lhs, img.rhs) == (scale * rep.lhs, scale * rep.rhs), where
        if rep.checker != "bochner_pointwise":  # its tolerance is absolute
            assert img.passed == rep.passed, where

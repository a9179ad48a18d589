"""Exact structure on drawn spaces.

Adjointness, mass conservation of the Laplacian and the Legendre identities
hold to rounding on every grid, so they are asserted on spaces drawn by
``hypothesis``: a geometry, 8-40 nodes and a length of 0.5-8 per axis, a
two-slope or Randers norm (drift below 0.95) and a cubic Psi.  The draws are
derandomized and few, so the suite is reproducible and fast.  A space whose
cell mass underflows is rejected at build, which is correct behaviour, so
that draw is skipped.  A few implicit steps of the heat flow run on spaces
whose Psi is scaled to a range of at most 20: Newton is known to fail on
some steeper weights, an open defect.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from finslergamma import (AsymNorm1D, Domain, FlowParams, RandersNorm, build_space, evolve,
                          integrate, operators_for)
from finslergamma.cli import ADJOINTNESS_TOL, _adjointness_residual
from finslergamma.inequalities import make_test_bank
from finslergamma.norms import LEGENDRE_TOL

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
def spaces(draw, psi_range=None):
    geometry = draw(st.sampled_from(sorted(_GEOMETRY_DIM)))
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
            <= LEGENDRE_TOL, label
        assert np.max(np.abs(np.einsum("mi,mi->m", a, v) - fstar_sq) / fstar_sq) \
            <= LEGENDRE_TOL, label


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

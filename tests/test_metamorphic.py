"""Metamorphic checks: maps of the problem under which every verdict must
stay put, applied to whole spaces and banks.

The reversal map sends a space (M, F, m) to its mirror image: the norm
reversed, F~(v) = F(-v), and Psi read at the mirrored node.  Reversing the
flat node order mirrors every axis at once, a symmetry of the grid and of
its stencils, so the mirror of a field g is g[::-1], and the mirror space
must give the same curvature constants and the same reports on the mirrored
bank.  Only the order of floating-point sums differs.

The monotone reduction: in 1D the two-slope norm AsymNorm1D(alpha, beta)
acts on an increasing field as the Euclidean norm with A = alpha^2 does, and
on a decreasing one as A = beta^2, bit for bit.  Its curvature constant is
the Euclidean one at A = max(alpha, beta)^2: Ric_N(v) scales as v^2, so it
is smallest along the shorter unit vector, the one of the steeper slope.

The scaling maps: stretching the domain, x -> 2x with Psi(x/2), and doubling
the norm, F -> 2F, each halve F*(Df) and every unit vector's length, so K
becomes K/4, and every report keeps its verdict, with both sides scaled by a
power of two fixed per checker.  The node values of Psi and of the bank are
the same on both sides, and every scale is a power of two, so all of this is
exact.  ``bochner_pointwise`` is left out of F -> 2F: its kink band compares
F*(Df), which halves, with a second-difference threshold that F does not
change, so its excluded nodes move.

The affine map of the flow: Lap(a u + c) = a Lap(u) for a > 0, so the flow
from a u0 + c is a u_t + c.  ``evolve`` reads its Newton stop relative to
osc(u0), which scales by a and ignores c, so after k steps the two flows part
by at most k a tol, tol the stop of u0; energy and variance scale by a^2, and
the variance rate and its verdicts stay put.
"""

import math
import os

import numpy as np
import pytest

from finslergamma import (AsymNorm1D, Domain, EuclideanNorm, RandersNorm, build_space,
                          decay_rates, evolve, operators_for)
from finslergamma.config import load_config
from finslergamma.curvature import effective_K
from finslergamma.heatflow import _l2m_norm
from finslergamma.inequalities import CHECKER_IDS, make_test_bank, run_checker_matrix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INF = math.inf

_A = np.array([[1.0, 0.2], [0.2, 1.5]])

# name -> (domain, norm, its reverse, Psi, N values)
REVERSAL_CASES = {
    "interval": (Domain("interval", (2.0,), (128,)), AsymNorm1D(2.0, 1.0),
                 AsymNorm1D(1.0, 2.0), "x**2/2 + 0.05*x**3", (-5.0, 3.0, 10.0, INF)),
    "randers-box": (Domain("box", (2.0, 2.0), (24, 24)), RandersNorm(_A, (0.3, 0.1)),
                    RandersNorm(_A, (-0.3, -0.1)), "(x**2 + y**2)/2 + 0.05*x**3",
                    (8.0, INF)),
}


@pytest.mark.parametrize("case", sorted(REVERSAL_CASES))
def test_reversal_keeps_K_and_every_report(case):
    domain, norm, reverse, psi, N_values = REVERSAL_CASES[case]
    space = build_space(domain, norm, psi)
    mirror = build_space(domain, reverse, space.psi[::-1])
    for N in N_values:
        assert math.isclose(effective_K(mirror, N).K_eff, effective_K(space, N).K_eff,
                            rel_tol=1e-9), N

    bank = make_test_bank(space, seed=0)
    reports = run_checker_matrix(space, N_values, bank=bank)
    mirrored = run_checker_matrix(mirror, N_values, bank=[(label, g[::-1]) for label, g in bank])
    assert len(reports) == len(mirrored) > 0
    for rep, rev in zip(reports, mirrored):
        where = (rep.checker, rep.N, rep.metadata["member"])
        assert (rev.checker, rev.N, rev.metadata["member"]) == where
        assert math.isclose(rev.lhs, rep.lhs, rel_tol=1e-9), where
        assert math.isclose(rev.rhs, rep.rhs, rel_tol=1e-9), where
        assert rev.passed == rep.passed, where


# bank member -> the Euclidean A that AsymNorm1D(2, 1) acts as on it: alpha^2
# on the increasing members, beta^2 on the decreasing one
MONOTONE_MEMBERS = {"linear": 4.0, "cubic": 4.0, "tilt-pos": 4.0, "tilt-neg": 1.0}


def test_monotone_members_see_one_slope_of_the_norm():
    domain, psi, N_values = Domain("interval", (2.0,), (256,)), "x**2/2", (3.0, 10.0, INF)
    space = build_space(domain, AsymNorm1D(2.0, 1.0), psi)
    euclidean = {A: build_space(domain, EuclideanNorm([[A]]), psi) for A in (4.0, 1.0)}
    for N in N_values:
        assert effective_K(space, N).K_eff == effective_K(euclidean[4.0], N).K_eff, N

    # talagrand is left out: its cost follows the transport direction, not
    # the monotonicity of the member
    checkers = [c for c in CHECKER_IDS if c != "talagrand"]
    bank = dict(make_test_bank(space, seed=0))
    for label, A in MONOTONE_MEMBERS.items():
        member = [(label, bank[label])]
        for N in N_values:
            K = effective_K(space, N).K_eff  # the Euclidean space of A = 1 has another K
            reports = run_checker_matrix(space, [N], checkers, bank=member, override_K=K)
            expected = run_checker_matrix(euclidean[A], [N], checkers, bank=member,
                                          override_K=K)
            assert len(reports) == len(expected) > 0
            for rep, exp in zip(reports, expected):
                where = (label, rep.checker, N)
                assert (rep.checker, rep.N, rep.K) == (exp.checker, exp.N, exp.K), where
                assert (rep.lhs, rep.rhs, rep.passed) == (exp.lhs, exp.rhs, exp.passed), where
                assert rep.metadata == exp.metadata, where


_OBLIQUE_A = np.array([[1.3, 0.4], [0.4, 0.8]])

# name -> (domain, norm, the norm doubled, Psi, N values)
SCALING_CASES = {
    "interval": (Domain("interval", (2.0,), (128,)), AsymNorm1D(2.0, 1.0),
                 AsymNorm1D(4.0, 2.0), "x**2/2 + 0.1*x**4", (3.0, 10.0, INF)),
    "randers-box": (Domain("box", (2.0, 2.0), (20, 20)), RandersNorm(_OBLIQUE_A, (0.5, -0.3)),
                    RandersNorm(4.0 * _OBLIQUE_A, (1.0, -0.6)),
                    "(x**2 + y**2)/2 + 0.1*x*y", (8.0, INF)),
}

# checker -> the factor both sides of its report scale by under either map
# (default 1), as F*^2(Df) and K scale by 1/4 and Gamma2 by 1/16: Gamma2 against
# K F*^2, F*^2 against Gamma2/K, and W2^2 against Ent/K
SIDE_SCALES = {"integrated_bochner": 1 / 16, "bochner_pointwise": 1 / 16,
               "gamma2_integral": 1 / 4, "talagrand": 4.0}


@pytest.mark.parametrize("scaling", ["stretch", "double-norm"])
@pytest.mark.parametrize("case", sorted(SCALING_CASES))
def test_scaling_maps_K_and_every_report_exactly(case, scaling):
    domain, norm, doubled, psi, N_values = SCALING_CASES[case]
    space = build_space(domain, norm, psi)
    if scaling == "stretch":  # node 2x carries Psi(x): the same nodal array
        stretched = Domain(domain.geometry, tuple(2 * L for L in domain.lengths),
                           domain.resolution)
        image = build_space(stretched, norm, space.psi)
    else:
        image = build_space(domain, doubled, space.psi)
    for N in N_values:
        assert effective_K(image, N).K_eff == effective_K(space, N).K_eff / 4, N

    checkers = [c for c in CHECKER_IDS
                if not (c == "bochner_pointwise" and scaling == "double-norm")]
    bank = make_test_bank(space, seed=0, size=6)
    reports = run_checker_matrix(space, N_values, checkers, bank=bank)
    images = run_checker_matrix(image, N_values, checkers, bank=bank)
    assert len(reports) == len(images) > 0
    for rep, img in zip(reports, images):
        where = (rep.checker, rep.N, rep.metadata["member"])
        assert (img.checker, img.N, img.metadata["member"]) == where
        scale = SIDE_SCALES.get(rep.checker, 1.0)
        assert (img.lhs, img.rhs) == (scale * rep.lhs, scale * rep.rhs), where
        if rep.checker != "bochner_pointwise":  # its tolerance is absolute
            assert img.passed == rep.passed, where


def _variance_verdicts(rate, curvature_table):
    """The variance verdict of ``fg flow run`` at each N with K > 0."""
    return {N: rate >= 0.95 * (2.0 * K if math.isinf(N) else 2.0 * K * N / (N - 1.0))
            for N, K in curvature_table.items() if K > 0}


@pytest.mark.parametrize("config", ["configs/gaussian_asym1d.json",
                                    "perfbench/configs/randers_box2d.json"])
def test_affine_map_of_the_initial_datum_maps_the_flow(config):
    cfg = load_config(os.path.join(ROOT, config))
    space = cfg.build_space()
    ops = operators_for(space)
    u0 = space.field_from_expression(cfg.flow.u0)
    params = cfg.flow.params
    tol = params.tol * float(np.ptp(u0))  # evolve's stop for u0
    table = cfg.curvature_table(space)
    flow = evolve(ops, u0, params)
    rate = decay_rates(flow)["variance_rate"]
    assert _variance_verdicts(rate, table)  # some N has a verdict
    for a, c in ((2.0, 3.0), (0.5, -1.0)):
        image = evolve(ops, a * u0 + c, params)
        assert len(image) == len(flow)
        for s, img in zip(flow, image):
            k = round(s.t / params.tau)  # steps taken
            assert img.t == s.t
            assert _l2m_norm(space, img.u - (a * s.u + c)) <= k * a * tol, (a, c, k)
            assert math.isclose(img.energy, a * a * s.energy, rel_tol=1e-8), (a, c, k)
            assert math.isclose(img.variance, a * a * s.variance, rel_tol=1e-8), (a, c, k)
        image_rate = decay_rates(image)["variance_rate"]
        assert math.isclose(image_rate, rate, rel_tol=1e-8), (a, c)
        assert _variance_verdicts(image_rate, table) == _variance_verdicts(rate, table)

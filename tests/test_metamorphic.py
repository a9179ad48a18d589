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
"""

import math

import numpy as np
import pytest

from finslergamma import AsymNorm1D, Domain, EuclideanNorm, RandersNorm, build_space
from finslergamma.curvature import effective_K
from finslergamma.inequalities import CHECKER_IDS, make_test_bank, run_checker_matrix

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

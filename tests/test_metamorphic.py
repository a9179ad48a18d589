"""Metamorphic checks: maps of the problem under which every verdict must
stay put, applied to whole spaces and banks.

The reversal map sends a space (M, F, m) to its mirror image: the norm
reversed, F~(v) = F(-v), and Psi read at the mirrored node.  Reversing the
flat node order mirrors every axis at once, a symmetry of the grid and of
its stencils, so the mirror of a field g is g[::-1], and the mirror space
must give the same curvature constants and the same reports on the mirrored
bank.  Only the order of floating-point sums differs.
"""

import math

import numpy as np
import pytest

from finslergamma import AsymNorm1D, Domain, RandersNorm, build_space
from finslergamma.curvature import effective_K
from finslergamma.inequalities import make_test_bank, run_checker_matrix

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

import math
import os

import numpy as np
import pytest
import scipy.linalg

from finslergamma import (AsymNorm1D, Domain, FlowSolverError, ab_parameter_solver,
                          build_space, check_bochner_pointwise,
                          check_entropy_energy, check_gamma2_integral,
                          check_integrated_bochner, check_logsobolev,
                          check_nash, check_nonsharp_sobolev, check_poincare,
                          check_sobolev, check_sobolev_inf, check_talagrand,
                          effective_K, estimate_poincare_constant,
                          feasibility_boundary, integrate, lichnerowicz_coeff,
                          make_test_bank, operators_for, run_checker_matrix,
                          sobolev_exponent_table)
import finslergamma.calculus as calculus
import finslergamma.inequalities as inequalities
from finslergamma.config import load_config
from finslergamma.curvature import admissible_N
from finslergamma.heatflow import step
from finslergamma.inequalities import CHECKER_IDS, runs_at
from finslergamma.space import variance

from conftest import (asym21, branched_bank, euclid, gauss_interval, oblique_randers,
                      uniform_circle)

INF = math.inf
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_lichnerowicz_coeff():
    assert lichnerowicz_coeff(INF, 2.0) == 0.5
    assert lichnerowicz_coeff(3.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert lichnerowicz_coeff(-5.0, 1.0) == pytest.approx(1.2)
    with pytest.raises(ValueError):
        lichnerowicz_coeff(3.0, 0.0)


def test_integrated_bochner(euclid_gauss6):
    sp = euclid_gauss6
    const = np.full(sp.n_nodes, 2.0)
    rep = check_integrated_bochner(sp, const, INF, 1.0)
    assert rep.passed and rep.lhs == rep.rhs == 0.0

    x = sp.coords[:, 0]
    rep = check_integrated_bochner(sp, x, INF, 1.0)
    assert rep.passed
    assert abs(rep.metadata["adjointness_gap"]) < 1e-13
    # hand computation in the interior: D[Lap f](grad f) = -1 = -K F^2(grad f)
    from finslergamma import operators_for
    ops = operators_for(sp)
    integrand = np.einsum("mi,mi->m", ops.differential(ops.laplacian(x)),
                          ops.field(x).grad)
    assert np.max(np.abs(integrand + 1.0)[ops.interior]) < 2e-2


def test_integrated_bochner_sweep(asym_gauss6):
    bank = make_test_bank(asym_gauss6, seed=0, size=8)
    K = effective_K(asym_gauss6, INF).K_eff
    for _, f in bank:
        rep = check_integrated_bochner(asym_gauss6, f, INF, K)
        assert rep.passed


@pytest.mark.parametrize("N", [INF, 3.0])
@pytest.mark.parametrize("space", ["asym", "randers"])
def test_bochner_pointwise_evaluates_the_legendre_map_once(asym_gauss6, monkeypatch,
                                                           space, N):
    sp = asym_gauss6 if space == "asym" else build_space(
        Domain("box", (2.0, 2.0), (12, 12)), oblique_randers(), "(x**2 + y**2)/2")
    calls = []
    legendre_map = type(sp.norm).legendre_map
    monkeypatch.setattr(type(sp.norm), "legendre_map",
                        lambda self, A_: calls.append(1) or legendre_map(self, A_))
    check_bochner_pointwise(sp, make_test_bank(sp, size=4)[-1][1], N, 0.25)
    assert len(calls) == 1


def test_bochner_pointwise(euclid_gauss6, asym_gauss6):
    x = euclid_gauss6.coords[:, 0]
    rep = check_bochner_pointwise(euclid_gauss6, x, INF, 1.0)
    assert rep.passed
    assert abs(rep.margin) < 5e-3  # Gamma2 = 1 = K F^2: discrete equality case

    const = np.full(euclid_gauss6.n_nodes, 3.0)
    assert check_bochner_pointwise(euclid_gauss6, const, INF, 1.0).passed

    bank = make_test_bank(asym_gauss6, seed=1, size=8)
    K = effective_K(asym_gauss6, INF).K_eff
    for _, f in bank:
        rep = check_bochner_pointwise(asym_gauss6, f, INF, K)
        assert rep.passed and rep.margin >= -2e-2


def test_poincare_examples(asym_gauss6):
    sp = asym_gauss6
    const = np.full(sp.n_nodes, 1.0)
    assert check_poincare(sp, const, INF, 0.25).passed

    x = sp.coords[:, 0]
    assert check_poincare(sp, x, INF, 0.25).passed

    # near equality Var(x) ~ 1 ~ 4 * int F^2(grad x) needs negligible
    # truncation, i.e. the wide domain
    wide = gauss_interval(asym21(), length=12.0, res=512)
    xw = wide.coords[:, 0]
    rep = check_poincare(wide, xw, INF, 0.25)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, rel=2e-2)

    rep_neg = check_poincare(wide, -xw, INF, 0.25)
    assert rep_neg.passed
    assert rep_neg.rhs == pytest.approx(4.0, rel=2e-2)  # strict slack

    with pytest.raises(ValueError):
        check_poincare(sp, x, INF, 0.0)


def test_poincare_margin_scaling(asym_gauss6):
    f = np.sin(asym_gauss6.coords[:, 0])
    base = check_poincare(asym_gauss6, f, INF, 0.25)
    for c in (0.5, 2.0, 10.0):
        scaled = check_poincare(asym_gauss6, c * f + 1.7, INF, 0.25)
        assert scaled.margin == pytest.approx(c**2 * base.margin, rel=1e-9)


def test_poincare_non_reversibility_witness(asym_gauss6):
    x = asym_gauss6.coords[:, 0]
    fwd = check_poincare(asym_gauss6, x, INF, 0.25)
    bwd = check_poincare(asym_gauss6, -x, INF, 0.25)
    assert bwd.margin / max(fwd.margin, 1e-12) >= 2.0


def test_estimate_poincare_constant():
    est = estimate_poincare_constant(gauss_interval(euclid(), length=12.0, res=512))
    assert est == pytest.approx(1.0, rel=0.05)
    est = estimate_poincare_constant(gauss_interval(asym21(), length=12.0, res=512))
    assert est == pytest.approx(4.0, rel=0.05)
    circle = uniform_circle(euclid(), length=1.0, res=128)
    est = estimate_poincare_constant(circle)
    assert est == pytest.approx((1.0 / (2 * math.pi)) ** 2, rel=0.05)
    # never exceeds the curvature prediction by more than the tolerance
    sp = gauss_interval(euclid(), length=12.0, res=512)
    assert estimate_poincare_constant(sp) <= 1.0 + 2e-2


def _smooth_poincare_constant(space, slope):
    """max(alpha, beta)^2 / lambda_1 on a 1D grid (the monotone reduction),
    lambda_1 the eigenvalue of D^T M D phi = lambda M phi whose eigenvector
    changes sign once (Sturm): the full spectrum also holds the odd-even ones."""
    ops = operators_for(space)
    D = np.stack([ops.differential(e)[:, 0] for e in np.eye(space.n_nodes)], axis=1)
    m = space.cell_mass
    lam, vec = scipy.linalg.eigh(D.T @ (m[:, None] * D), np.diag(m))
    changes = np.count_nonzero(np.diff(np.sign(vec), axis=0), axis=0)
    return slope ** 2 / lam[np.flatnonzero(changes == 1)[0]]


# name -> (the space, the norm's larger slope max(alpha, beta))
SMOOTH_POINCARE_CASES = {
    "double-well": (lambda: build_space(Domain("interval", (6.0,), (256,)),
                                        AsymNorm1D(1.5, 1.0), "(x**2 - 1)**2"), 1.5),
    "cd-1-3": (lambda: build_space(Domain("interval", (4.0,), (512,)), euclid(),
                                   "-2*log(cos(x/sqrt(2)))"), 1.0),
    "finite-n-gaussian": (lambda: load_config(os.path.join(
        ROOT, "configs", "gaussian_asym1d_finite_n.json")).build_space(), 2.0),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_POINCARE_CASES))
def test_estimate_poincare_constant_reaches_the_smooth_eigenvalue(name):
    # before, the gradient ascent ended 5.2%, 3.5% and 9.9% under
    make_space, slope = SMOOTH_POINCARE_CASES[name]
    space = make_space()
    exact = _smooth_poincare_constant(space, slope)
    est = estimate_poincare_constant(space)
    assert abs(est / exact - 1.0) <= 1e-7
    assert est <= exact * (1.0 + 1e-12)  # the quotient of a grid function


def test_estimate_poincare_constant_keeps_its_best_when_a_step_fails(monkeypatch):
    space = load_config(os.path.join(ROOT, "configs", "gaussian_asym1d_finite_n.json")
                        ).build_space()
    ops = operators_for(space)
    best_bank = max(variance(space, g) / integrate(space, ops.field(g).dual_sq)
                    for _, g in make_test_bank(space))
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise FlowSolverError("implicit step did not converge", 1.0)
        return step(*args, **kwargs)

    monkeypatch.setattr(inequalities, "step", failing_second)
    assert estimate_poincare_constant(space) >= best_bank
    assert len(calls) == 2


def test_logsobolev(euclid_gauss6):
    sp = euclid_gauss6
    one = np.ones(sp.n_nodes)
    rep = check_logsobolev(sp, one, 1e6, 1.0)
    assert rep.passed and rep.lhs == 0.0

    # the near-extremal tilt needs the wide domain: truncating at 3 sigma
    # perturbs the tilted measure at the percent level
    wide = gauss_interval(euclid(), length=12.0, res=512)
    f = wide.field_from_expression("exp(x - 0.5)")
    rep = check_logsobolev(wide, f, 1e6, 1.0)
    assert rep.passed
    assert rep.metadata.get("normalized")
    assert rep.lhs == pytest.approx(rep.rhs, rel=3e-2)  # near-extremal tilt

    with pytest.raises(ValueError):
        check_logsobolev(sp, sp.coords[:, 0], 1e6, 1.0)  # sign-changing
    with pytest.raises(ValueError, match="logsobolev"):  # proved for N in [n, inf] only
        check_logsobolev(sp, sp.field_from_expression("exp(x - 0.5)"), -5.0, 1.0)


def test_gamma2_integral(asym_gauss6):
    sp = asym_gauss6
    K = effective_K(sp, INF).K_eff
    assert check_gamma2_integral(sp, np.ones(sp.n_nodes), INF, K).lhs == 0.0
    u = 1.0 + 0.3 * np.sin(sp.coords[:, 0])
    assert check_gamma2_integral(sp, u, INF, K).passed
    with pytest.raises(ValueError):
        check_gamma2_integral(sp, sp.coords[:, 0], INF, K)


def test_talagrand(euclid_gauss6):
    sp = euclid_gauss6
    rep = check_talagrand(sp, sp.cell_mass, 1e6, 1.0)
    assert rep.passed and abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12

    x = sp.coords[:, 0]
    density = np.exp(-((x - 0.3) ** 2) / 2) / np.exp(-(x**2) / 2)
    mu = density * sp.cell_mass
    mu /= mu.sum()
    rep = check_talagrand(sp, mu, 1e6, 1.0)
    assert rep.passed and rep.margin >= 0.0
    with pytest.raises(ValueError):
        check_talagrand(sp, mu, INF, 1.0)  # finite N only


def test_entropy_energy(euclid_gauss2):
    sp = euclid_gauss2
    K = effective_K(sp, 3.0).K_eff
    one = np.ones(sp.n_nodes)
    rep = check_entropy_energy(sp, one, 3.0, K)
    assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-12)
    bank = make_test_bank(sp, seed=2, size=6)
    for _, f in bank:
        assert check_entropy_energy(sp, f, 3.0, K).passed


def test_nash(euclid_gauss2):
    sp = euclid_gauss2
    K = effective_K(sp, 3.0).K_eff
    one = np.ones(sp.n_nodes)
    rep = check_nash(sp, one, 3.0, K)
    assert rep.passed and rep.lhs == pytest.approx(rep.rhs, abs=1e-12)  # equality
    x = sp.coords[:, 0]
    f = x / math.sqrt(integrate(sp, x * x))
    assert check_nash(sp, f, 3.0, K).passed


def test_nonsharp_sobolev(euclid_gauss2):
    sp = euclid_gauss2
    K = effective_K(sp, 4.0).K_eff
    one = np.ones(sp.n_nodes)
    rep = check_nonsharp_sobolev(sp, one, 4.0, K)
    assert rep.passed
    assert rep.metadata["constant"] == pytest.approx(256.0)  # 2^{4N/(N-2)} at N=4
    rep3 = check_nonsharp_sobolev(sp, one, 3.0, K)
    assert rep3.metadata["constant"] == pytest.approx(2.0**12)
    bank = make_test_bank(sp, seed=3, size=6)
    for _, f in bank:
        assert check_nonsharp_sobolev(sp, f, 4.0, K).passed
    with pytest.raises(ValueError):
        check_nonsharp_sobolev(sp, one, 2.0, K)


def test_sobolev_family(euclid_gauss2, asym_gauss2):
    sp = euclid_gauss2
    K3 = effective_K(sp, 3.0).K_eff
    const = np.full(sp.n_nodes, 2.0)
    rep = check_sobolev(sp, const, 1.5, 3.0, K3)
    assert rep.passed and abs(rep.lhs) < 1e-12
    assert check_sobolev(sp, np.zeros(sp.n_nodes), 2.0, 3.0, K3).lhs == 0.0

    # p = 1 reproduces the variance form for nonnegative f
    f = 1.0 + 0.4 * np.sin(2 * sp.coords[:, 0])
    rep = check_sobolev(sp, f, 1.0, 3.0, K3)
    var = integrate(sp, f * f) - integrate(sp, f) ** 2
    assert rep.lhs == pytest.approx(var, abs=1e-9)

    # p = 2 is the limit of the family, under the same rhs
    rep2 = check_sobolev(sp, f, 2.0, 3.0, K3)
    assert rep2.metadata == {"p": 2.0} and rep2.rhs == rep.rhs
    assert rep2.passed

    Ka = effective_K(asym_gauss2, 3.0).K_eff
    bank = make_test_bank(asym_gauss2, seed=4, size=6)
    for _, g in bank:
        assert check_sobolev(asym_gauss2, g, 2.5, 3.0, Ka).passed

    with pytest.raises(ValueError):
        check_sobolev(sp, f, 3.0, 3.0, K3)  # p > 2(N+1)/N = 8/3


def test_sobolev_p_grid_single_bound(euclid_gauss2):
    # one rhs bound covers the whole p-family (the quotient is NOT monotone
    # in p in general: bounded perturbations decrease while strong tilts
    # increase, so each grid point is checked in its own right)
    sp = euclid_gauss2
    k = effective_K(sp, 5.0).K_eff
    for f in (1.0 + 0.4 * np.sin(2 * sp.coords[:, 0]) + 0.1 * sp.coords[:, 0],
              np.exp(sp.coords[:, 0])):
        reports = [check_sobolev(sp, f, p, 5.0, k) for p in (1.0, 1.3, 1.7, 2.0, 2.2, 2.4)]
        rhs = reports[0].rhs
        assert all(r.passed for r in reports)
        assert all(r.rhs == pytest.approx(rhs, rel=1e-12) for r in reports)


def test_sobolev_inf(euclid_gauss6):
    sp = euclid_gauss6
    f = 1.0 + 0.3 * np.sin(sp.coords[:, 0])
    for p in (1.0, 1.5):
        assert check_sobolev_inf(sp, f, p, 1.0).passed
    # p -> 2 continuity: the quotient tends to the p = 2 lhs
    lim = check_sobolev_inf(sp, f, 2.0, 1.0)
    near = check_sobolev_inf(sp, f, 1.999, 1.0)
    assert near.lhs == pytest.approx(lim.lhs, rel=1e-4)
    with pytest.raises(ValueError):
        check_sobolev_inf(sp, f, 2.5, 1.0)


_ENERGY_RHS = {  # the rhs of each energy-based checker at (N, K) from E = int F^2(grad f) dm
    "sobolev": lambda sp, f, E, N, K: lichnerowicz_coeff(N, K) * E,
    "sobolev_inf": lambda sp, f, E, N, K: lichnerowicz_coeff(INF, K) * E,
    "nash": lambda sp, f, E, N, K: 0.5 * N * math.log(
        inequalities._lp_norm(sp, f, 2.0) ** 2 + 4.0 * (0.5 * E) / (K * N))
        + 2.0 * math.log(inequalities._lp_norm(sp, f, 1.0)),
    "nonsharp_sobolev": lambda sp, f, E, N, K: 2.0 ** (4.0 * N / (N - 2.0)) * (
        (4.0 / 3.0) * inequalities._lp_norm(sp, f, 2.0) ** 2 + 4.0 * (0.5 * E) / (K * N)),
    "entropy_energy": lambda sp, f, E, N, K: 0.5 * N * math.log1p(4.0 * E / (K * N)),
}


def _sign_changing_member(space):
    """A space (the two-slope interval or the oblique Randers box) and a bank
    member on it that changes sign."""
    sp = gauss_interval(asym21(), res=64) if space == "asym" else build_space(
        Domain("box", (2.0, 2.0), (12, 12)), oblique_randers(), "(x**2 + y**2)/2")
    f = make_test_bank(sp, seed=0, size=8)[-1][1]
    assert f.min() < 0 < f.max()
    return sp, f


@pytest.mark.parametrize("space", ["asym", "randers-box"])
def test_sobolev_p2_is_the_limit_of_the_family(space):
    sp, f = _sign_changing_member(space)
    N, K = 3.0, 0.5
    near = (2.0 - 1e-3, 2.0 + 1e-3)
    for check, ps in ((lambda p: check_sobolev(sp, f, p, N, K), near),
                      (lambda p: check_sobolev_inf(sp, f, p, K), near[:1])):
        at2, at15 = check(2.0), check(1.5)
        assert at2.rhs == at15.rhs
        for p in ps:
            assert at2.lhs == pytest.approx(check(p).lhs, rel=1e-4), p


@pytest.mark.parametrize("space", ["asym", "randers-box"])
def test_energy_checkers_read_the_direct_energy_of_a_sign_changing_member(space):
    sp, f = _sign_changing_member(space)
    N, K = 3.0, 0.5
    reports = {
        "sobolev": check_sobolev(sp, f, 1.5, N, K),
        "sobolev_inf": check_sobolev_inf(sp, f, 1.5, K),
        "nash": check_nash(sp, f, N, K),
        "nonsharp_sobolev": check_nonsharp_sobolev(sp, f, N, K),
        "entropy_energy": check_entropy_energy(sp, f, N, K),
    }
    assert set(reports) == set(_ENERGY_RHS)
    for checker, rep in reports.items():
        E = integrate(sp, operators_for(sp).field(f).dual_sq)
        if checker == "entropy_energy":  # the energy of the unit-L2 rescaling of f
            E = E / integrate(sp, f * f)
        assert rep.rhs == _ENERGY_RHS[checker](sp, f, E, N, K), checker


def test_run_checker_matrix_builds_one_record_per_member(monkeypatch):
    sp = gauss_interval(asym21(), res=64)
    bank = make_test_bank(sp, seed=0, size=3)
    built = []
    init = calculus.Field.__init__

    def counting(self, ops, f):
        built.append(f)
        init(self, ops, f)

    monkeypatch.setattr(calculus.Field, "__init__", counting)
    reports = run_checker_matrix(sp, [3.0, INF], bank=bank, override_K=1.0)
    assert {r.N for r in reports} == {3.0, INF}
    for _, g in bank:
        assert sum(f is g for f in built) == 1


def test_exponent_table():
    t = sobolev_exponent_table(4.0)
    assert t.p_basic_max == pytest.approx(2.5)
    assert t.p_extended_max == pytest.approx(2.5 + math.sqrt(3) / 2, abs=1e-12)
    assert t.b0_extremal == pytest.approx(1.0)
    assert t.a0_extremal == pytest.approx(-1.0)
    for N in (2.5, 3.0, 6.0, 10.0, 50.0):
        t = sobolev_exponent_table(N)
        assert t.p_basic_max <= t.p_extended_max <= 2 * N / (N - 2) + 1e-12
    with pytest.raises(ValueError):
        sobolev_exponent_table(2.0)


def test_ab_parameter_solver():
    sol = ab_parameter_solver(4.0, 2.5)
    assert sol.feasible and sol.a0 >= 0
    assert max(sol.residuals) < 1e-10

    crit = ab_parameter_solver(4.0, 4.0)
    assert not crit.feasible
    assert crit.a0 == pytest.approx(-1.0, abs=1e-9)
    assert crit.b0 == pytest.approx(1.0, abs=1e-9)

    # discriminant vanishes at p = 1; root is unique, feasibility by sign
    lo = ab_parameter_solver(4.0, 1.0)
    assert lo.b0 == pytest.approx(2 * (1 - 0.0 / 6.0), abs=1e-7)
    assert lo.feasible

    with pytest.raises(ValueError):
        ab_parameter_solver(4.0, 5.0)  # beyond critical exponent
    b0_lower = 2 * (1 - (2.5 - 1) / 6.0)
    assert ab_parameter_solver(4.0, 2.5).b0 >= b0_lower - 1e-12


@pytest.mark.parametrize("N", [3.0, 4.0, 6.0, 10.0])
def test_feasibility_boundary_matches_extended_max(N):
    boundary = feasibility_boundary(N)
    assert abs(boundary - sobolev_exponent_table(N).p_extended_max) < 1e-8


def test_run_checker_matrix_shapes(asym_gauss2):
    reports = run_checker_matrix(asym_gauss2, [3.0, INF], bank_size=4, seed=0)
    assert all(r.passed for r in reports)
    names = {r.checker for r in reports}
    assert "sobolev_inf" in names and "talagrand" in names
    # reports are deterministic for a fixed seed
    again = run_checker_matrix(asym_gauss2, [3.0, INF], bank_size=4, seed=0)
    assert [(r.checker, r.N, r.lhs, r.rhs) for r in reports] == \
        [(r.checker, r.N, r.lhs, r.rhs) for r in again]
    with pytest.raises(ValueError):
        run_checker_matrix(asym_gauss2, [0.5])
    with pytest.raises(ValueError):
        run_checker_matrix(asym_gauss2, [3.0], checkers=["bogus"])


def test_bank_reproducible(asym_gauss6):
    b1 = make_test_bank(asym_gauss6, seed=7, size=10)
    b2 = make_test_bank(asym_gauss6, seed=7, size=10)
    assert len(b1) == 10
    for (l1, f1), (l2, f2) in zip(b1, b2):
        assert l1 == l2
        assert np.array_equal(f1, f2)
    labels = [l for l, _ in b1]
    assert "linear" in labels and any(l.startswith("noise") for l in labels)


@pytest.mark.parametrize("space", ["interval", "randers-box"])
def test_bank_is_the_branched_construction_bit_for_bit(space):
    sp = gauss_interval(asym21()) if space == "interval" else build_space(
        Domain("box", (2.0, 3.0), (16, 20)), oblique_randers(), "(x**2 + y**2)/2")
    for seed in range(16):
        bank, oracle = make_test_bank(sp, seed, 30), branched_bank(sp, seed, 30)
        assert [label for label, _ in bank] == [label for label, _ in oracle]
        for (label, g), (_, h) in zip(bank, oracle):
            assert np.array_equal(g, h), (seed, label)


def test_run_checker_matrix_cells():
    sp = gauss_interval(asym21(), res=64)
    bank = make_test_bank(sp, seed=0, size=1)
    N_values = [-5.0, 2.0, 3.0, 8.0, INF]
    # K pinned to 1 so that only the N ranges decide which cells run
    reports = run_checker_matrix(sp, N_values, bank=bank, override_K=1.0)
    expected = {
        "integrated_bochner": (-5.0, 2.0, 3.0, 8.0, INF),
        "bochner_pointwise": (-5.0, 2.0, 3.0, 8.0, INF),
        "poincare": (-5.0, 2.0, 3.0, 8.0, INF),
        "logsobolev": (2.0, 3.0, 8.0, INF),
        "gamma2_integral": (2.0, 3.0, 8.0, INF),
        "talagrand": (2.0, 3.0, 8.0),
        "entropy_energy": (2.0, 3.0, 8.0),
        "nash": (2.0, 3.0, 8.0),
        "nonsharp_sobolev": (3.0, 8.0),
        "sobolev": (2.0, 3.0, 8.0),
        "sobolev_inf": (INF,),
    }
    assert {(r.checker, r.N) for r in reports} == \
        {(c, N) for c, Ns in expected.items() for N in Ns}
    # each cell runs once (a checker that reports a fixed N, like sobolev_inf,
    # would repeat its cell if it ran at another N)
    assert len({(r.checker, r.N, r.metadata.get("p")) for r in reports}) == len(reports)

    negative = run_checker_matrix(sp, N_values, bank=bank, override_K=-1.0)
    assert {(r.checker, r.N) for r in negative} == \
        {(c, N) for c in ("integrated_bochner", "bochner_pointwise") for N in N_values}


def test_run_checker_matrix_looks_checkers_up_on_the_module(monkeypatch):
    sp = gauss_interval(asym21(), res=64)
    bank = make_test_bank(sp, seed=0, size=3)
    calls = []
    original = inequalities.check_poincare

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(inequalities, "check_poincare", counting)
    reports = run_checker_matrix(sp, [3.0, INF], checkers=["poincare", "nash"],
                                 bank=bank, override_K=1.0)
    assert len(calls) == 2 * len(bank)
    assert [r.metadata["member"] for r in reports if r.checker == "poincare"] == \
        [label for label, _ in bank] * 2


# one valid input per checker, so that only N and K can make a call fail
_CALLS = {
    "integrated_bochner": lambda s, g, N, K: check_integrated_bochner(s, g, N, K),
    "bochner_pointwise": lambda s, g, N, K: check_bochner_pointwise(s, g, N, K),
    "poincare": lambda s, g, N, K: check_poincare(s, g, N, K),
    "logsobolev": lambda s, g, N, K: check_logsobolev(
        s, inequalities._positive_density(operators_for(s).field(g)), N, K),
    "gamma2_integral": lambda s, g, N, K: check_gamma2_integral(s, 1.0 + 0.45 * g, N, K),
    "talagrand": lambda s, g, N, K: check_talagrand(
        s, inequalities._measure_from_member(operators_for(s).field(g)), N, K),
    "entropy_energy": lambda s, g, N, K: check_entropy_energy(s, g, N, K),
    "nash": lambda s, g, N, K: check_nash(s, g, N, K),
    "nonsharp_sobolev": lambda s, g, N, K: check_nonsharp_sobolev(s, g, N, K),
    "sobolev": lambda s, g, N, K: check_sobolev(s, g, 1.5, N, K),
    "sobolev_inf": lambda s, g, N, K: check_sobolev_inf(s, g, 1.5, K),
}


@pytest.mark.parametrize("space", ["interval", "randers-box"])
def test_checkers_raise_exactly_outside_their_matrix_row(space):
    sp = gauss_interval(asym21(), res=32) if space == "interval" else build_space(
        Domain("box", (2.0, 2.0), (12, 12)), oblique_randers(), "(x**2 + y**2)/2")
    g = make_test_bank(sp, seed=0, size=8)[-1][1]
    assert set(_CALLS) == set(CHECKER_IDS)
    for checker, call in _CALLS.items():
        # sobolev_inf takes no N: it is the N = inf member of the family
        for N in (INF,) if checker == "sobolev_inf" else \
                (-5.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 8.0, INF):
            for K in (-1.0, 0.0, 1.0):
                if admissible_N(N, sp.dim) and runs_at(checker, N, K):
                    rep = call(sp, g, N, K)
                    assert (rep.checker, rep.N, rep.K) == (checker, N, K)
                else:
                    with pytest.raises(ValueError, match=checker):
                        call(sp, g, N, K)

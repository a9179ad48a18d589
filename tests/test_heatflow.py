import dataclasses
import math
import os
import platform
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from finslergamma import (DiffOperators, Domain, FlowParams, FlowSolverError,
                          FlowState, build_space, check_dEdt_identity, decay_rates, evolve,
                          integrate, observables, operators_for, step)
from finslergamma import calculus, heatflow
from finslergamma.config import load_config
from finslergamma.heatflow import RATE_SENTINEL, _l2m_norm

from conftest import (asym21, euclid, gauss_interval, oblique_randers,
                      summed_products_matrix, uniform_circle)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_constant_is_fixed_point():
    sp = gauss_interval(asym21(), res=96)
    ops = operators_for(sp)
    u = np.full(sp.n_nodes, 1.7)
    assert np.allclose(step(ops, u, 0.1), u, atol=1e-13)
    states = evolve(ops, u, FlowParams(tau=0.05, t_end=0.5))
    assert all(s.energy < 1e-30 and abs(s.variance) < 1e-14 for s in states)


def test_step_evaluates_the_legendre_map_once_per_residual(monkeypatch):
    sp = build_space(Domain("box", (2.0, 2.0), (12, 12)), oblique_randers(),
                     "(x**2 + y**2)/2")
    ops = DiffOperators(sp)
    calls = Counter()
    for owner, name in [(type(sp.norm), "legendre_map"), (DiffOperators, "laplacian"),
                        (DiffOperators, "linearized_laplacian_matrix")]:
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    step(ops, 1.0 + 0.3 * np.sin(3 * sp.coords[:, 0]) * sp.coords[:, 1], 0.05)
    assert calls["linearized_laplacian_matrix"] >= 2
    # one residual at the start and one per line-search trial; each Newton
    # Jacobian reuses the Legendre map of the iterate it linearizes at
    assert calls["legendre_map"] == calls["laplacian"]


def test_mass_conservation():
    sp = gauss_interval(asym21(), res=96)
    ops = operators_for(sp)
    rng = np.random.default_rng(0)
    u = 1.0 + 0.3 * rng.standard_normal(sp.n_nodes)
    m0 = integrate(sp, u)
    for _ in range(100):
        u = step(ops, u, 1e-3)
    assert abs(integrate(sp, u) - m0) < 1e-12


def test_fourier_mode_amplitude_oracle():
    sp = uniform_circle(euclid(), res=128)
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    u0 = 1.0 + 0.1 * np.cos(2 * np.pi * x)
    states = evolve(ops, u0, FlowParams(tau=1e-4, t_end=0.01, stride=10))
    amplitude = 2.0 * integrate(sp, states[-1].u * np.cos(2 * np.pi * x))
    assert amplitude == pytest.approx(0.1 * math.exp(-4 * math.pi**2 * 0.01), rel=0.01)


def test_variance_nonincreasing_and_energy_monotone():
    for norm in (euclid(), asym21()):
        sp = gauss_interval(norm, res=96)
        ops = operators_for(sp)
        rng = np.random.default_rng(1)
        u0 = 1.0 + 0.5 * rng.standard_normal(sp.n_nodes)
        states = evolve(ops, u0, FlowParams(tau=2e-3, t_end=0.1))
        var = [s.variance for s in states]
        en = [s.energy for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(var, var[1:]))
        assert all(b <= a + 1e-12 * (1 + a) for a, b in zip(en, en[1:]))
        assert states[-1].variance <= states[0].variance


def test_comparison_principle():
    for norm in (euclid(), asym21()):
        sp = gauss_interval(norm, res=96)
        ops = operators_for(sp)
        x = sp.coords[:, 0]
        u0 = 1.0 + 0.2 * np.sin(3 * x)
        states = evolve(ops, u0, FlowParams(tau=5e-3, t_end=0.25, stride=5))
        lo, hi = u0.min(), u0.max()
        for s in states:
            assert s.u.min() >= lo - 1e-8
            assert s.u.max() <= hi + 1e-8


def test_ergodicity_on_positively_curved_space():
    sp = gauss_interval(euclid(), res=96)
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    u0 = 1.0 + 0.3 * np.sin(2 * x)
    mean = integrate(sp, u0)
    states = evolve(ops, u0, FlowParams(tau=2e-2, t_end=16.0, stride=20))
    dev = states[-1].u - mean
    assert math.sqrt(integrate(sp, dev * dev)) < 1e-6


def test_decay_rates_sentinel_and_validation():
    sp = gauss_interval(euclid(), res=96)
    ops = operators_for(sp)
    states = evolve(ops, np.ones(sp.n_nodes), FlowParams(tau=1e-2, t_end=0.2))
    rates = decay_rates(states)
    assert rates["variance_rate"] == RATE_SENTINEL
    assert rates["entropy_rate"] == RATE_SENTINEL
    with pytest.raises(ValueError):
        decay_rates(states[:5])


def test_decay_rate_of_a_non_finite_tail_is_nan():
    # a sign-changing datum has no entropy; the sentinel would read as a PASS
    sp = gauss_interval(euclid(), res=64)
    states = evolve(operators_for(sp), sp.coords[:, 0], FlowParams(tau=1e-2, t_end=0.1))
    assert all(math.isnan(s.entropy) for s in states)
    rates = decay_rates(states)
    assert math.isnan(rates["entropy_rate"])
    assert math.isfinite(rates["variance_rate"]) and rates["variance_rate"] > 0


def _synthetic_series(u0, variance, entropy):
    """FlowStates at t = 0, 0.1, ..., 1.9 with the given observable values."""
    return [FlowState(t=0.1 * k, u=u0, energy=0.0, variance=v, entropy=e, fisher=0.0)
            for k, (v, e) in enumerate(zip(variance, entropy))]


@pytest.mark.parametrize("amplitude", [1e-20, 1.0, 1e20])
def test_decay_rates_fit_a_tail_at_any_amplitude(amplitude):
    # a datum a*u0 has variance a^2 V and entropy a E: the rates do not see a
    t = 0.1 * np.arange(20)
    u0 = amplitude * (1.0 + 0.2 * np.linspace(-3.0, 3.0, 16))
    states = _synthetic_series(u0, amplitude**2 * 0.04 * np.exp(-0.5 * t),
                               amplitude * 0.02 * np.exp(-0.6 * t))
    rates = decay_rates(states)
    assert rates["variance_rate"] == pytest.approx(0.5, rel=1e-12)
    assert rates["entropy_rate"] == pytest.approx(0.6, rel=1e-12)


@pytest.mark.parametrize("amplitude", [1e-20, 1.0, 1e20])
def test_decay_rates_of_a_rounding_level_tail_are_the_sentinel(amplitude):
    # observables at rounding level relative to the datum carry no rate
    wobble = 1.0 + 0.5 * (-1.0) ** np.arange(20)
    u0 = np.full(16, amplitude)
    states = _synthetic_series(u0, (1e-16 * amplitude) ** 2 * wobble,
                               1e-16 * amplitude * wobble)
    assert decay_rates(states) == {"variance_rate": RATE_SENTINEL,
                                   "entropy_rate": RATE_SENTINEL}


def test_linear_circle_variance_rate():
    sp = uniform_circle(euclid(), res=128)
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    u0 = 1.0 + 0.1 * np.cos(2 * np.pi * x)
    states = evolve(ops, u0, FlowParams(tau=5e-5, t_end=0.02, stride=4))
    rates = decay_rates(states)
    assert rates["variance_rate"] == pytest.approx(2 * (2 * np.pi) ** 2, rel=0.02)


def test_gaussian_rates_beat_curvature_bound():
    # K = 1 (Euclidean) and K = 0.25 (two-slope) at N = infinity
    for norm, K in ((euclid(), 1.0), (asym21(), 0.25)):
        sp = gauss_interval(norm, res=128)
        ops = operators_for(sp)
        x = sp.coords[:, 0]
        var_x = integrate(sp, x * x) - integrate(sp, x) ** 2
        u0 = 1.0 + 0.1 * x / math.sqrt(var_x)
        states = evolve(ops, u0, FlowParams(tau=4e-3, t_end=1.6, stride=8))
        rates = decay_rates(states)
        assert rates["variance_rate"] >= 2 * K * 0.95
        assert rates["entropy_rate"] >= 2 * K * 0.95


def test_dEdt_identity_stationary_and_convergence():
    sp = uniform_circle(euclid(), res=64)
    ops = operators_for(sp)
    states = evolve(ops, np.full(64, 2.0), FlowParams(tau=1e-3, t_end=5e-3))
    assert check_dEdt_identity(ops, states).residual == 0.0

    for norm in (euclid(), asym21()):
        residuals = []
        for res in (128, 256):
            spc = uniform_circle(norm, res=res)
            opsc = operators_for(spc)
            x = spc.coords[:, 0]
            u0 = 1.0 + 0.1 * np.sin(2 * np.pi * x)
            tau = 0.2 * spc.h[0]  # halving h halves tau
            states = evolve(opsc, u0, FlowParams(tau=tau, t_end=5 * tau, tol=1e-13))
            residuals.append(check_dEdt_identity(opsc, states[-2:]).residual)
        assert residuals[0] / residuals[1] >= 1.8


def test_dEdt_reports_gradient_zero_band_separately():
    spc = uniform_circle(asym21(), res=128)
    ops = operators_for(spc)
    x = spc.coords[:, 0]
    u0 = 1.0 + 0.1 * np.sin(2 * np.pi * x)
    tau = 0.05 * spc.h[0] ** 2
    states = evolve(ops, u0, FlowParams(tau=tau, t_end=5 * tau, tol=1e-13))
    rep = check_dEdt_identity(ops, states[-2:])
    assert rep.excluded_nodes > 0
    assert rep.residual <= rep.residual_unmasked


def test_evolve_starts_each_step_from_the_extrapolated_states(monkeypatch):
    sp = gauss_interval(asym21(), res=64)
    u0 = 1.0 + 0.3 * np.sin(3 * sp.coords[:, 0])
    calls = []

    def recorded(ops, u, tau, start=None, **kw):
        calls.append((u, start))
        return step(ops, u, tau, start=start, **kw)

    monkeypatch.setattr(heatflow, "step", recorded)
    states = evolve(operators_for(sp), u0, FlowParams(tau=1e-2, t_end=0.05))
    us = [s.u for s in states]
    assert len(calls) == 5 and calls[0][1] is None
    assert np.array_equal(calls[1][1], 2.0 * us[1] - us[0])
    for k in range(2, 5):
        assert np.array_equal(calls[k][0], us[k])
        assert np.array_equal(calls[k][1], 3.0 * (us[k] - us[k - 1]) + us[k - 2])


def test_a_start_that_meets_tol_takes_no_newton_iteration(monkeypatch):
    sp = gauss_interval(asym21(), res=96)
    ops = operators_for(sp)
    u = 1.0 + 0.3 * np.sin(sp.coords[:, 0])
    v = step(ops, u, 1e-2)
    built = []
    original = DiffOperators.linearized_laplacian_matrix
    monkeypatch.setattr(DiffOperators, "linearized_laplacian_matrix",
                        lambda *a: built.append(1) or original(*a))
    w = step(ops, u, 1e-2, start=v)
    assert built == []
    assert _l2m_norm(sp, w - v) <= 1e-10
    assert integrate(sp, w) == pytest.approx(integrate(sp, u), abs=1e-15)
    step(ops, u, 1e-2)  # from u itself the step still needs Newton
    assert built


@pytest.mark.parametrize("config", ["configs/gaussian_asym1d.json",
                                    "perfbench/configs/randers_box2d.json"])
def test_predicted_flow_stays_within_its_tolerance_of_the_plain_start(monkeypatch, config):
    # from either start a step ends with residual <= tol, and the implicit
    # step is nonexpansive in L2(m), so after k steps each flow is within
    # k tol of the exact one and the two part by <= 2k tol; here they part
    # by <= 0.06k tol
    cfg = load_config(os.path.join(ROOT, config))
    ops = DiffOperators(cfg.build_space())
    u0 = ops.space.field_from_expression(cfg.flow.u0)
    params = dataclasses.replace(cfg.flow.params, stride=1)
    predicted = evolve(ops, u0, params)
    monkeypatch.setattr(heatflow, "step",
                        lambda ops, u, tau, start=None, **kw: step(ops, u, tau, **kw))
    plain = evolve(ops, u0, params)
    tol = params.tol * float(np.ptp(u0))  # evolve's stop for this u0
    mass0 = integrate(ops.space, u0)
    for k, (p, q) in enumerate(zip(predicted, plain)):
        assert p.t == q.t
        assert _l2m_norm(ops.space, p.u - q.u) <= 2 * k * tol, k
        assert abs(integrate(ops.space, p.u) - mass0) < 1e-12, k
    energy = [s.energy for s in predicted]
    assert all(b < a for a, b in zip(energy, energy[1:]))


def test_solver_failure_is_reported():
    sp = gauss_interval(asym21(), res=96)
    ops = operators_for(sp)
    u = 1.0 + 0.3 * np.sin(sp.coords[:, 0])
    with pytest.raises(FlowSolverError) as err:
        step(ops, u, 1.0, tol=1e-300, max_iter=3)
    assert err.value.residual > 0


def test_observables_flag_nonpositive_data():
    sp = gauss_interval(euclid(), res=96)
    ops = operators_for(sp)
    state = observables(ops, 0.0, sp.coords[:, 0])  # sign-changing
    assert math.isnan(state.entropy) and math.isnan(state.fisher)
    state = observables(ops, 0.0, 1.0 + 0.1 * sp.coords[:, 0] ** 2)
    assert np.isfinite(state.entropy) and np.isfinite(state.fisher)


def test_observables_are_homogeneous_and_blind_to_constants():
    # variance is 2-homogeneous, entropy m Ent(u/m) and Fisher 1-homogeneous,
    # and the variance ignores an added constant; a constant has zero entropy
    sp = gauss_interval(asym21(), res=96)
    ops = operators_for(sp)
    u = 1.0 + 0.2 * sp.coords[:, 0]
    base, scaled, shifted = (observables(ops, 0.0, v) for v in (u, 3.0 * u, u + 1e4))
    assert scaled.variance == pytest.approx(9.0 * base.variance, rel=1e-12)
    assert scaled.entropy == pytest.approx(3.0 * base.entropy, rel=1e-12)
    assert scaled.fisher == pytest.approx(3.0 * base.fisher, rel=1e-12)
    # the uncentered E[u^2] - mean^2 is off by 1.4e-8 relative here
    assert shifted.variance == pytest.approx(base.variance, rel=1e-10)
    assert abs(observables(ops, 0.0, np.full(sp.n_nodes, 5.0)).entropy) < 1e-14


def test_randers_2d_flow_smoke():
    from finslergamma import Domain, RandersNorm, build_space

    norm = RandersNorm(np.eye(2), (0.5, 0.0))
    sp = build_space(Domain("torus", (1.0, 1.0), (16, 16)), norm, "0")
    ops = operators_for(sp)
    x, y = sp.coords[:, 0], sp.coords[:, 1]
    u0 = 1.0 + 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    states = evolve(ops, u0, FlowParams(tau=1e-3, t_end=1e-2, stride=2))
    assert states[-1].variance < states[0].variance
    assert abs(integrate(sp, states[-1].u) - integrate(sp, states[0].u)) < 1e-12


def summed_products_step(ops, u, tau, tol=1e-10, max_iter=50):
    """``step`` with J = I - tau L assembled as a sparse sum, L included, and
    solved in the bundle's column order q as J[:, q] y = b, x[q] = y."""
    space = ops.space
    q = ops.linearized_pattern.order
    mass0 = integrate(space, u)
    v = u.copy()
    ident = sparse.identity(space.n_nodes, format="csr")
    res = v - u - tau * ops.laplacian(v)
    rnorm = _l2m_norm(space, res)
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        J = ident - tau * summed_products_matrix(ops, v)
        dv = np.empty_like(res)
        dv[q] = spla.spsolve(sparse.csc_matrix(J)[:, q], -res, permc_spec="NATURAL")
        s = 1.0
        while True:
            trial = v + s * dv
            tres = trial - u - tau * ops.laplacian(trial)
            tnorm = _l2m_norm(space, tres)
            if tnorm <= (1.0 - 0.25 * s) * rnorm or s < 1.0 / 64:
                v, res, rnorm = trial, tres, tnorm
                break
            s *= 0.5
    assert rnorm <= tol
    return v + (mass0 - integrate(space, v))


@pytest.mark.parametrize("space, u0, tau", [
    (lambda: gauss_interval(asym21(), res=96), "1 + 0.2*x + 0.1*sin(3*x)", 2e-3),
    (lambda: gauss_interval(asym21(), res=96), "1 + 0.3*sin(3*x)", 0.5),
    (lambda: build_space(Domain("box", (2.0, 2.0), (24, 24)), oblique_randers(),
                         "(x**2 + y**2)/2"), "1 + 0.2*x", 1e-3),
    # the Jacobians' exact zeros, which the products prune, change no bit
    # in the bundle's column order
    (lambda: build_space(Domain("box", (2.0, 2.0), (24, 24)), oblique_randers(),
                         "(x**2 + y**2)/2"), "2 + x", 0.1),
    # which sign of the slope leaves exact zeros depends on how Ginv rounds
    (lambda: build_space(Domain("box", (2.0, 2.0), (24, 24)), oblique_randers(),
                         "(x**2 + y**2)/2"), "2 - x", 0.1),
    # periodic wrap: the stencils' corner entries join the products
    (lambda: build_space(Domain("torus", (1.0, 1.0), (12, 15)), oblique_randers(), "0"),
     "1 + 0.2*sin(2*pi*x)*cos(2*pi*y) + 0.1*cos(2*pi*y)", 1e-3),
    (lambda: uniform_circle(asym21(), res=48), "1 + 0.3*sin(2*pi*x)", 1e-3),
], ids=["interval", "interval-large-tau", "randers-box", "randers-box-pruned",
        "randers-box-pruned-reflected", "randers-torus", "asym-circle"])
def test_step_is_bit_identical_to_summed_products(space, u0, tau):
    sp = space()
    ops = DiffOperators(sp)
    u = sp.field_from_expression(u0)
    for _ in range(4):
        v = step(ops, u, tau)
        assert np.array_equal(v, summed_products_step(ops, u, tau))
        u = v


def test_step_builds_the_jacobian_pattern_once(monkeypatch):
    builds = []

    def counting(*args):
        builds.append(1)
        return build(*args)

    build = calculus._linearized_pattern
    monkeypatch.setattr(calculus, "_linearized_pattern", counting)
    sp = gauss_interval(asym21(), res=64)
    ops = DiffOperators(sp)
    u = 1.0 + 0.3 * np.sin(3 * sp.coords[:, 0])
    for _ in range(3):
        u = step(ops, u, 1e-2)
    assert len(builds) == 1
    pattern = ops.linearized_pattern
    for f in (u, u * u):
        L = ops.linearized_laplacian_matrix(f)
        assert np.shares_memory(L.indices, pattern.indices)
        assert np.shares_memory(L.indptr, pattern.indptr)
    with pytest.raises(ValueError):
        L.eliminate_zeros()  # the shared pattern is read-only
    assert len(builds) == 1
    assert DiffOperators(sp).linearized_pattern is not pattern
    assert len(builds) == 2


@pytest.mark.parametrize("space", [
    lambda: gauss_interval(asym21(), res=64),
    lambda: build_space(Domain("box", (2.0, 2.0), (12, 12)), oblique_randers(),
                        "(x**2 + y**2)/2"),
], ids=["interval", "randers-box"])
def test_each_newton_solve_is_handed_the_assembled_matrix(monkeypatch, space):
    # one CSC per Newton iteration: spsolve gets the very matrix that
    # linearized_laplacian_matrix returned, already in the column order
    assembled, handed = [], []
    assemble, solve = DiffOperators.linearized_laplacian_matrix, spla.spsolve

    def assembling(self, f):
        assembled.append(assemble(self, f))
        return assembled[-1]

    def solving(A, b, **kwargs):
        handed.append(A)
        return solve(A, b, **kwargs)

    monkeypatch.setattr(DiffOperators, "linearized_laplacian_matrix", assembling)
    monkeypatch.setattr(spla, "spsolve", solving)
    sp = space()
    ops = DiffOperators(sp)
    u = 1.0 + 0.3 * np.sin(3 * sp.coords[:, 0])
    for _ in range(3):
        u = step(ops, u, 1e-2)
    assert len(handed) == len(assembled) >= 3
    assert all(A is J for A, J in zip(handed, assembled))


def _jacobian(ops, u, tau):
    """J[:, q] with J = I - tau L at u, as ``step`` builds it, and J itself."""
    Jq = ops.linearized_laplacian_matrix(u)
    Jq.data *= -tau
    Jq.data[ops.linearized_pattern.diagonal] += 1.0
    return Jq, Jq[:, np.argsort(ops.linearized_pattern.order)]


def _solve_ordered(ops, Jq, b):
    """x with J x = b from J[:, q] in natural order, as ``step`` solves."""
    x = np.empty_like(b)
    x[ops.linearized_pattern.order] = spla.spsolve(Jq, b, permc_spec="NATURAL")
    return x


def test_a_flow_orders_the_jacobian_once_per_bundle(monkeypatch):
    # SuperLU runs COLAMD unless it is given permc_spec="NATURAL"
    orderings = []

    def counting(solver):
        def counted(*args, **kwargs):
            if kwargs.get("permc_spec") != "NATURAL":
                orderings.append(solver.__name__)
            return solver(*args, **kwargs)
        return counted

    for name in ("spsolve", "splu"):
        monkeypatch.setattr(spla, name, counting(getattr(spla, name)))
    sp = gauss_interval(asym21(), res=64)
    u0 = 1.0 + 0.3 * np.sin(3 * sp.coords[:, 0])
    evolve(DiffOperators(sp), u0, FlowParams(tau=1e-2, t_end=0.2))
    assert orderings == ["splu"]
    step(DiffOperators(sp), u0, 1e-2)  # a second bundle orders its own pattern
    assert orderings == ["splu", "splu"]


def _pruned(J):
    P = J.copy()
    P.eliminate_zeros()
    return P


@pytest.mark.parametrize("config", ["configs/gaussian_asym1d.json",
                                    "perfbench/configs/randers_box2d.json"])
def test_fixed_order_solve_is_per_call_colamd_bit_for_bit(config):
    # the box's first Jacobian holds 4 stored zeros: both with and without
    # them, a per-call COLAMD solve gives the fixed order's bits
    cfg = load_config(os.path.join(ROOT, config))
    ops = DiffOperators(cfg.build_space())
    tau = cfg.flow.params.tau
    u = ops.space.field_from_expression(cfg.flow.u0)
    for _ in range(3):
        Jq, J = _jacobian(ops, u, tau)
        b = tau * ops.laplacian(u)
        x = _solve_ordered(ops, Jq, b)
        assert np.array_equal(x, spla.spsolve(J, b))
        assert np.array_equal(x, spla.spsolve(_pruned(J), b))
        u = step(ops, u, tau)


def test_stored_zeros_change_no_bit_in_the_fixed_order():
    sp = build_space(Domain("box", (2.0, 2.0), (24, 24)), oblique_randers(),
                     "(x**2 + y**2)/2")
    ops = DiffOperators(sp)
    u = sp.field_from_expression("2 - x")
    Jq, J = _jacobian(ops, u, 0.1)
    assert np.count_nonzero(Jq.data == 0) == np.count_nonzero(J.data == 0) == 6
    pruned = _pruned(J)
    b = 0.1 * ops.laplacian(u)
    x = _solve_ordered(ops, Jq, b)
    assert np.array_equal(x, spla.spsolve(J, b))
    # COLAMD orders the pruned pattern otherwise, and so rounds otherwise
    assert not np.array_equal(x, spla.spsolve(pruned, b))
    q = ops.linearized_pattern.order
    x_pruned = np.empty_like(b)
    x_pruned[q] = spla.spsolve(pruned[:, q], b, permc_spec="NATURAL")
    assert np.array_equal(x, x_pruned)



@pytest.mark.parametrize("config", ["configs/gaussian_asym1d.json",
                                    "perfbench/configs/randers_box2d.json",
                                    "configs/circle_identities.json",
                                    "configs/randers_torus2d.json"])
def test_the_mass_weighted_newton_matrix_is_symmetric_positive_definite(config):
    # diag(m) (I - tau L) is symmetric, since L = -(1/m) D^T diag(m Ginv) D,
    # and positive definite: the property a banded Cholesky solve rests on
    cfg = load_config(os.path.join(ROOT, config))
    sp = cfg.build_space()
    ops = DiffOperators(sp)
    if cfg.flow is not None:  # the flow's u0 and tau
        u0, tau = sp.field_from_expression(cfg.flow.u0), cfg.flow.params.tau
    else:  # the identity suite's
        u0 = 1.0 + 0.1 * np.sin(2 * np.pi * sp.coords / cfg.domain.lengths).sum(axis=1)
        tau = 0.05 * min(sp.h) ** 2
    for u in (u0, u0 + 0.05 * sp.coords[:, 0] ** 2):
        S = sp.cell_mass[:, None] * _jacobian(ops, u, tau)[1].toarray()
        assert np.max(np.abs(S - S.T)) <= 1e-14 * np.max(np.abs(S))
        np.linalg.cholesky(S)

_FAULTS_OF_SECOND_FLOW = """
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
import finslergamma.cli
from finslergamma import heatflow
with contextlib.redirect_stdout(io.StringIO()):
    finslergamma.cli.main(sys.argv[2:])
    solves, spsolve = [], heatflow.spla.spsolve
    heatflow.spla.spsolve = lambda *a, **kw: solves.append(1) or spsolve(*a, **kw)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    finslergamma.cli.main(sys.argv[2:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, len(solves))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_newton_solves_fault_no_freed_workspace_back_in(tmp_path):
    # a fresh interpreter that runs only flows: there glibc trimmed SuperLU's
    # workspace off the heap top after every solve and the next solve faulted
    # it back in, about 35 page faults a solve over the solves of a flow
    src = os.path.join(ROOT, "src")
    argv = ["flow", "run", "--config", os.path.join(ROOT, "configs", "gaussian_asym1d.json"),
            "--out", str(tmp_path)]
    run = subprocess.run([sys.executable, "-c", _FAULTS_OF_SECOND_FLOW, src, *argv],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    faults, solves = map(int, run.stdout.split()[-2:])
    assert faults < solves

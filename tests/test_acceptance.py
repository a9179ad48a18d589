"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from finslergamma import (Domain, FlowParams, build_space, check_bochner_pointwise,
                          check_dEdt_identity, check_logsobolev, check_poincare,
                          decay_rates, effective_K, estimate_poincare_constant,
                          evolve, feasibility_boundary, integrate,
                          lp_transport_cost, make_test_bank, operators_for,
                          quantile_transport_cost, run_checker_matrix,
                          sobolev_exponent_table)
from finslergamma.cli import main
from finslergamma.transport import _pair_cost_matrix

from conftest import asym21, euclid, gauss_interval, uniform_circle

INF = math.inf


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exact_discrete_duality():
    domains = [
        (Domain("interval", (6.0,), (256,)), euclid(), "x**2/2"),
        (Domain("circle", (1.0,), (128,)), asym21(), "0"),
        (Domain("box", (1.0, 1.0), (24, 24)), euclid(2), "0.2*(x**2 + y**2)"),
        (Domain("torus", (1.0, 1.0), (24, 24)), euclid(2), "0.1*sin(2*pi*x)"),
    ]
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for domain, norm, psi in domains:
        sp = build_space(domain, norm, psi)
        ops = operators_for(sp)
        for _ in range(100):
            phi = rng.standard_normal(sp.n_nodes)
            V = rng.standard_normal((sp.n_nodes, sp.dim))
            lhs = integrate(sp, phi * ops.divergence(V))
            rhs = -integrate(sp, np.einsum("mi,mi->m", ops.differential(phi), V))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-13 and elapsed < 1.0,
           f"max residual {worst:.2e} over 400 pairs in {elapsed:.2f}s")


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    orders = {}
    for label, norm in (("euclid", euclid()), ("asym", asym21())):
        residuals = {}
        for res in (128, 256):
            sp = uniform_circle(norm, res=res)
            ops = operators_for(sp)
            x = sp.coords[:, 0]
            h = 0.3 * np.sin(2 * np.pi * x)
            entry = {}
            for a in (0.25, 0.5, 1.0):
                for name, residual in ops.identity_residuals(h, a).items():
                    entry[f"{name}(a={a})"] = residual
            tau = 0.05 * sp.h[0] ** 2
            u0 = 1.0 + 0.1 * np.sin(2 * np.pi * x)
            states = evolve(ops, u0, FlowParams(tau=tau, t_end=5 * tau, tol=1e-13))
            entry["dissipation"] = check_dEdt_identity(ops, states[-2:]).residual
            residuals[res] = entry
        for name in residuals[128]:
            orders[f"{label}:{name}"] = math.log2(
                residuals[128][name] / residuals[256][name])
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in orders.items() if v < 1.8}
    report(2, not bad and elapsed < 30.0,
           f"min order {min(orders.values()):.2f} over {len(orders)} identities "
           f"in {elapsed:.1f}s" + (f"; below 1.8: {bad}" if bad else ""))


def test_criterion_3_bochner_floor():
    worst = math.inf
    for norm in (euclid(), asym21()):
        sp = gauss_interval(norm, length=6.0, res=256)
        bank = make_test_bank(sp, seed=0, size=20)
        for N in (3.0, 10.0, INF):
            K = effective_K(sp, N).K_eff
            for _, f in bank:
                rep = check_bochner_pointwise(sp, f, N, K)
                worst = min(worst, rep.margin)
                assert rep.passed
    report(3, worst >= -2e-2, f"worst interior floor {worst:.2e} >= -2e-2")


def test_criterion_4_sharp_poincare_recovery():
    t0 = time.perf_counter()
    est_euclid = estimate_poincare_constant(
        gauss_interval(euclid(), length=12.0, res=512))
    sp_asym = gauss_interval(asym21(), length=12.0, res=512)
    K_asym = effective_K(sp_asym, INF).K_eff
    est_asym = estimate_poincare_constant(sp_asym)
    elapsed = time.perf_counter() - t0
    ok = (abs(est_euclid - 1.0) <= 0.05
          and abs(est_asym * K_asym - 1.0) <= 0.05
          and elapsed < 120.0)
    report(4, ok, f"estimates {est_euclid:.4f} (want 1.0), "
                  f"{est_asym:.4f} (want {1/K_asym:.2f}) in {elapsed:.1f}s")


def test_criterion_5_sharp_logsobolev_witness():
    sp = gauss_interval(euclid(), length=12.0, res=512)
    f = sp.field_from_expression("exp(x - 0.5)")
    rep = check_logsobolev(sp, f, 1e6, 1.0)
    ratio = rep.lhs / rep.metadata["fisher"]
    ok = rep.passed and abs(ratio - 0.5) <= 0.015
    report(5, ok, f"Ent/Fisher = {ratio:.5f} (want 0.5 within 3%)")


def test_criterion_6_inequality_matrix():
    all_reports = []
    for norm in (euclid(), asym21()):
        sp = gauss_interval(norm, length=2.0, res=256)
        reports = run_checker_matrix(sp, [-5.0, 3.0, 10.0, 1e6, INF],
                                     bank_size=12, seed=0)
        all_reports.extend(reports)
    failed = [r for r in all_reports if not r.passed]
    checkers_seen = {r.checker for r in all_reports}
    expected = {"integrated_bochner", "bochner_pointwise", "poincare",
                "logsobolev", "gamma2_integral", "talagrand", "entropy_energy",
                "nash", "nonsharp_sobolev", "sobolev", "sobolev_inf"}

    # Talagrand 1D quantile transport cross-validated against the LP oracle
    sp32 = build_space(Domain("interval", (4.0,), (32,)), asym21(), "x**2/2")
    rng = np.random.default_rng(1)
    x = sp32.coords[:, 0]
    mu = (1.0 + 0.4 * np.sin(x)) * sp32.cell_mass
    mu /= mu.sum()
    quantile = quantile_transport_cost(sp32, mu, sp32.cell_mass)
    lp = lp_transport_cost(_pair_cost_matrix(sp32, sp32.coords, sp32.coords),
                           mu, sp32.cell_mass)
    ok = (not failed and checkers_seen == expected
          and abs(quantile - lp) <= 1e-10)
    report(6, ok, f"{len(all_reports)} checks, {len(failed)} failed, "
                  f"quantile-vs-LP gap {abs(quantile - lp):.2e}")


def test_criterion_7_flow_decay():
    ok = True
    detail = []
    for label, norm in (("euclid", euclid()), ("asym", asym21())):
        sp = gauss_interval(norm, length=2.0, res=192)
        ops = operators_for(sp)
        x = sp.coords[:, 0]
        states = evolve(ops, 1.0 + 0.2 * x, FlowParams(tau=1e-3, t_end=1.0, stride=5))
        rates = decay_rates(states)
        for N in (3.0, INF):
            K = effective_K(sp, N).K_eff
            bound = (2 * K if math.isinf(N) else 2 * K * N / (N - 1)) * 0.95
            ok &= rates["variance_rate"] >= bound and rates["entropy_rate"] >= bound
            detail.append(f"{label} N={N}: rates ({rates['variance_rate']:.2f}, "
                          f"{rates['entropy_rate']:.2f}) >= {bound:.3f}")
        lo, hi = (1.0 + 0.2 * x).min(), (1.0 + 0.2 * x).max()
        violation = max(max(lo - s.u.min(), s.u.max() - hi) for s in states)
        ok &= violation <= 1e-8

    # mass drift over 10^4 implicit steps
    sp = gauss_interval(euclid(), length=2.0, res=96)
    ops = operators_for(sp)
    u0 = 1.0 + 0.2 * np.sin(3 * sp.coords[:, 0])
    states = evolve(ops, u0, FlowParams(tau=1e-4, t_end=1.0, stride=1000))
    drift = abs(integrate(sp, states[-1].u) - integrate(sp, states[0].u))
    ok &= drift <= 1e-10
    report(7, ok, "; ".join(detail) + f"; mass drift {drift:.2e} over 1e4 steps")


def test_criterion_8_exponent_algebra():
    t = sobolev_exponent_table(4.0)
    table_ok = (t.p_basic_max == pytest.approx(2.5, abs=1e-12)
                and t.p_extended_max == pytest.approx(3.36603, abs=1e-5)
                and t.b0_extremal == pytest.approx(1.0, abs=1e-12)
                and t.a0_extremal == pytest.approx(-1.0, abs=1e-12))
    boundary_ok = all(
        abs(feasibility_boundary(N) - sobolev_exponent_table(N).p_extended_max) <= 1e-8
        for N in (3.0, 4.0, 6.0, 10.0))
    report(8, table_ok and boundary_ok,
           f"table(4) = ({t.p_basic_max}, {t.p_extended_max:.5f}, "
           f"{t.b0_extremal}, {t.a0_extremal}); boundaries match to 1e-8")


def test_criterion_9_falsification_guard(tmp_path):
    config = {
        "space": {
            "domain": {"geometry": "interval", "lengths": [12.0], "resolution": [512]},
            "norm": {"variant": "euclidean", "matrix": [[1.0]]},
            "psi": "x**2/2",
        },
        "n_values": ["inf"],
        "checkers": ["poincare"],
        "bank": {"seed": 0, "size": 6},
    }
    cfg = tmp_path / "falsify.json"
    cfg.write_text(json.dumps(config))
    honest = main(["ineq", "check", "--config", str(cfg), "--out", str(tmp_path)])
    doubled = main(["ineq", "check", "--config", str(cfg), "--out", str(tmp_path),
                    "--override-k", "2.0"])
    rep = json.loads((tmp_path / "ineq_report.json").read_text())
    near_extremal_failed = any(
        not c["pass"] and c["metadata"].get("member") == "linear"
        for c in rep["checks"])
    ok = honest == 0 and doubled == 1 and near_extremal_failed
    report(9, ok, f"exit codes {honest}/{doubled}; near-extremal check fails "
                  f"under doubled K: {near_extremal_failed}")

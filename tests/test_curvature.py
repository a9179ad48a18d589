import importlib
import json
import math

import numpy as np
import pytest

from finslergamma import (Domain, RandersNorm, admissible_N, build_space,
                          curvature, effective_K)
from finslergamma.cli import main

from conftest import asym21, euclid, gauss_interval


def ricci_N(space, node, v, N):
    """Ric_N(v) = v' M_N v at one node, read from the package's curvature forms."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return float(v @ curvature._curvature_forms(space, N)[node] @ v)


def test_admissible_range():
    assert admissible_N(-5.0, 1)
    assert admissible_N(1.0, 1)
    assert admissible_N(math.inf, 1)
    assert not admissible_N(0.0, 1)
    assert not admissible_N(0.5, 1)
    assert not admissible_N(1.5, 2)


def test_ricci_examples():
    sp = gauss_interval(euclid(), length=2.0, res=257)  # odd: x = 0, 1 are nodes
    x = sp.coords[:, 0]
    mid = int(np.argmin(np.abs(x)))
    assert ricci_N(sp, mid, (1.0,), math.inf) == pytest.approx(1.0, abs=1e-10)
    at1 = int(np.argmin(np.abs(x - 1.0)))
    assert ricci_N(sp, at1, (1.0,), 3.0) == pytest.approx(0.5, abs=1e-9)

    flat = build_space(Domain("interval", (2.0,), (64,)), euclid(), "0")
    for N in (-5.0, 1.0, 4.0, math.inf):
        assert ricci_N(flat, 10, (0.7,), N) == pytest.approx(0.0, abs=1e-12)


def test_ricci_rejections():
    sp = gauss_interval(euclid(), length=2.0, res=64)
    with pytest.raises(ValueError):
        ricci_N(sp, 5, (1.0,), 0.5)  # N in [0, n)
    with pytest.raises(ValueError):
        ricci_N(sp, 5, (1.0,), 1.0)  # N = n with D psi != 0
    flat = build_space(Domain("interval", (2.0,), (64,)), euclid(), "3")
    assert ricci_N(flat, 5, (1.0,), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_scaling_exact():
    sp = gauss_interval(euclid(), length=2.0, res=64)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(1)
        if not np.any(v):
            continue
        c = float(rng.uniform(0.1, 5.0))
        for N in (-5.0, 3.0, math.inf):
            assert ricci_N(sp, 7, c * v, N) == pytest.approx(
                c**2 * ricci_N(sp, 7, v, N), rel=1e-12)


def test_monotonicity_in_N():
    sp = gauss_interval(euclid(), length=2.0, res=64)
    rng = np.random.default_rng(1)
    for _ in range(10):
        node = int(rng.integers(0, 64))
        v = rng.standard_normal(1)
        if abs(v[0]) < 1e-6:
            continue
        vals = [ricci_N(sp, node, v, N) for N in (2.0, 5.0, 50.0)]
        inf_val = ricci_N(sp, node, v, math.inf)
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
        assert vals[2] <= inf_val + 1e-12
        assert ricci_N(sp, node, v, -5.0) >= inf_val - 1e-12


def test_effective_K_examples():
    assert effective_K(gauss_interval(euclid()), math.inf).K_eff == pytest.approx(
        1.0, abs=1e-9)
    assert effective_K(gauss_interval(asym21()), math.inf).K_eff == pytest.approx(
        0.25, abs=1e-9)
    sp2 = gauss_interval(euclid(), length=2.0, res=257)
    rep = effective_K(sp2, 3.0)
    assert rep.K_eff == pytest.approx(0.5, abs=1e-9)
    # argmin sits at the boundary where 1 - x^2/2 is smallest
    assert abs(abs(sp2.coords[rep.argmin_node, 0]) - 1.0) < 1e-12


def test_effective_K_shift_invariance():
    a = gauss_interval(asym21(), res=128)
    b = build_space(Domain("interval", (6.0,), (128,)), asym21(), "x**2/2 + 3")
    # identical up to rounding of the shifted samples through the stencils
    for N in (-5.0, 3.0, math.inf):
        assert effective_K(a, N).K_eff == pytest.approx(
            effective_K(b, N).K_eff, abs=1e-9)


def test_effective_K_2d():
    sp = build_space(Domain("box", (2.0, 2.0), (33, 33)), euclid(2),
                     "(x**2 + y**2)/2")
    assert effective_K(sp, math.inf).K_eff == pytest.approx(1.0, abs=1e-9)
    # at the corner the drift term (x v1 + y v2)^2/(N-n) peaks along (1,1)/sqrt(2)
    assert effective_K(sp, 4.0).K_eff == pytest.approx(0.0, abs=1e-9)


def test_effective_K_rejects_inadmissible():
    sp = gauss_interval(euclid(), res=64)
    with pytest.raises(ValueError):
        effective_K(sp, 0.5)


def _randers_box():
    return build_space(Domain("box", (2.0, 2.0), (32, 32)),
                       RandersNorm(np.eye(2), (0.3, 0.1)), "(x**2 + y**2)/2")


def _oblique_torus():
    # non-diagonal A, oblique b with |b|_(A^-1) ~ 0.92, non-convex Psi
    norm = RandersNorm(np.array([[2.0, 0.7], [0.7, 1.0]]), (0.6, -0.5))
    return build_space(Domain("torus", (2 * math.pi, 2 * math.pi), (24, 20)), norm,
                       "sin(x) + 0.5*cos(2*y) + 0.3*sin(x + y)")


def _dense_minimum(space, N, n=20000):
    """Minimum of Ric_N over all nodes and n equiangular F-unit directions."""
    M = curvature._curvature_forms(space, N)
    theta = 2 * np.pi * np.arange(n) / n
    d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    V = d / space.norm.values(d)[:, None]
    return min(float(np.einsum("mij,ki,kj->mk", M, V[c], V[c]).min())
               for c in np.array_split(np.arange(n), 40))


def test_effective_K_randers_closed_form():
    sp = _randers_box()
    expected = 1.0 / (1.0 + math.sqrt(0.3**2 + 0.1**2)) ** 2
    assert effective_K(sp, math.inf).K_eff == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case, N", [
    ("box", math.inf), ("box", 8.0), ("box", 4.0), ("box", 2.5), ("box", -5.0),
    ("torus", math.inf), ("torus", 3.0), ("torus", -5.0),
])
def test_effective_K_2d_is_exact(case, N):
    sp = _randers_box() if case == "box" else _oblique_torus()
    rep = effective_K(sp, N)
    v = np.array(rep.argmin_direction)
    assert sp.norm.values(v[None, :])[0] == pytest.approx(1.0, abs=1e-12)
    assert ricci_N(sp, rep.argmin_node, v, N) == pytest.approx(rep.K_eff, rel=1e-10,
                                                               abs=1e-12)
    dense = _dense_minimum(sp, N)
    # the exact minimum lies below every sampled value and close to the dense one
    assert rep.K_eff <= dense + 1e-13 * (1.0 + abs(dense))
    assert rep.K_eff == pytest.approx(dense, rel=1e-6, abs=1e-6)


_BOX_DOC = {
    "space": {
        "domain": {"geometry": "box", "lengths": [2.0, 2.0], "resolution": [16, 16]},
        "norm": {"variant": "randers", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                 "drift": [0.3, 0.1]},
        "psi": "(x**2 + y**2)/2",
    },
    "n_values": ["inf", 8],
}
_INTERVAL_DOC = {
    "space": {
        "domain": {"geometry": "interval", "lengths": [6.0], "resolution": [64]},
        "norm": {"variant": "asym1d", "alpha": 2.0, "beta": 1.0},
        "psi": "x**2/2",
    },
    "n_values": ["inf", 3],
}
_CONSTANT_DOC = {  # N = n is defined on a constant Psi, where K = 0
    "space": dict(_BOX_DOC["space"], psi="3"),
    "n_values": [2, "inf"],
    "checkers": ["integrated_bochner"],
}


def test_one_solve_per_space_and_N_per_command(tmp_path, monkeypatch, capsys):
    solved = []
    original = curvature.effective_K

    def counting(space, N):
        solved.append((id(space), N))
        return original(space, N)

    for name in ("curvature", "config", "inequalities", "cli"):
        module = importlib.import_module(f"finslergamma.{name}")
        monkeypatch.setattr(module, "effective_K", counting, raising=False)
    cfg = tmp_path / "config.json"
    for doc in (_BOX_DOC, _INTERVAL_DOC, _CONSTANT_DOC):
        cfg.write_text(json.dumps(dict({"checkers": ["poincare"]}, **doc, bank={"size": 2},
                                       flow={"u0": "1 + 0.2*x", "tau": 0.001,
                                             "t_end": 0.01})))
        for command in (["space", "describe"], ["flow", "run"], ["ineq", "check"]):
            solved.clear()
            code = main([*command, "--config", str(cfg), "--out", str(tmp_path)])
            # at K = 0 no decay rate has a bound: the flow stops after the K table
            assert code in (0, 1) or "needs an N with K > 0" in capsys.readouterr().err
            assert len(solved) == 2 and len(set(solved)) == 2, (doc["n_values"], command)

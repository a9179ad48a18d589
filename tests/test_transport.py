import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

import finslergamma
from finslergamma import (Domain, RandersNorm, build_space, lp_transport_cost,
                          quantile_transport_cost, transport_cost_sq)
from finslergamma.cli import main
from finslergamma.transport import _check_marginal, _pair_cost_matrix, coarsen_measure

from conftest import asym21, dirac, euclid, gauss_interval, oblique_randers


def test_identity_transport_is_free():
    sp = gauss_interval(asym21(), res=64)
    assert transport_cost_sq(sp, sp.cell_mass, sp.cell_mass) == pytest.approx(0.0, abs=1e-15)
    assert transport_cost_sq(sp, sp.cell_mass) == pytest.approx(0.0, abs=1e-16)


def test_dirac_asymmetry():
    sp = build_space(Domain("interval", (2.0,), (9,)), asym21(), "0")
    d0, d1 = dirac(sp, [0.0]), dirac(sp, [1.0])
    assert transport_cost_sq(sp, d0, d1) == pytest.approx(4.0)
    assert transport_cost_sq(sp, d1, d0) == pytest.approx(1.0)


def test_quantile_matches_lp_oracle_on_32_nodes():
    sp = build_space(Domain("interval", (4.0,), (32,)), asym21(), "x**2/2")
    rng = np.random.default_rng(0)
    x = sp.coords[:, 0]
    for _ in range(5):
        a, b = rng.uniform(0.1, 0.5, size=2)
        mu = (1.0 + a * np.sin(x)) * sp.cell_mass
        mu /= mu.sum()
        nu = (1.0 + b * np.cos(2 * x)) * sp.cell_mass
        nu /= nu.sum()
        quantile = quantile_transport_cost(sp, mu, nu)
        C = _pair_cost_matrix(sp, sp.coords, sp.coords)
        lp = lp_transport_cost(C, mu, nu)
        assert abs(quantile - lp) < 1e-10


def _quantile_by_merge_loop(space, mu, nu):
    """Reference: the monotone coupling as a merge over the nodes, then the
    moved pieces' costs summed in merge order."""
    mu = _check_marginal(mu, "mu").copy()
    nu = _check_marginal(nu, "nu").copy()
    x = space.coords[:, 0]
    pieces, steps = [], []
    i = j = 0
    n = len(x)
    while i < n and j < n:
        if mu[i] <= 1e-18:
            i += 1
            continue
        if nu[j] <= 1e-18:
            j += 1
            continue
        moved = min(mu[i], nu[j])
        pieces.append(moved)
        steps.append(x[j] - x[i])
        mu[i] -= moved
        nu[j] -= moved
    F = space.norm.values(np.array(steps)[:, None])
    cost = 0.0
    for moved, f in zip(pieces, F):
        cost += moved * f ** 2
    return float(cost)


_COUPLING_NORMS = {"euclidean": euclid, "two-slope": asym21,
                   "randers": lambda: RandersNorm(np.array([[1.7]]), (0.45,))}
_COUPLING_KINDS = ("positive", "zero-mass", "dirac", "equal")


def _coupling_case(rng, n, kind):
    """A pair of probability vectors on n nodes of the given kind."""
    def positive():
        return rng.random(n) + 0.01

    def zero_mass():  # scattered zeros and an empty run at one end
        p = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
        p[:n // 5] = 0.0
        p[rng.integers(n // 5, n)] = 1.0
        return p[::rng.choice((-1, 1))]

    def dirac():
        p = np.zeros(n)
        p[rng.integers(n)] = 1.0
        return p

    if kind == "positive":
        mu, nu = positive(), positive()
    elif kind == "zero-mass":
        mu, nu = zero_mass(), zero_mass()
    elif kind == "dirac":
        mu, nu = [(dirac(), zero_mass()), (positive(), dirac()),
                  (dirac(), dirac())][rng.integers(3)]
    else:
        mu = nu = zero_mass()
    return mu / mu.sum(), nu / nu.sum()


def _random_interval(rng, norm, n):
    return build_space(Domain("interval", (rng.uniform(0.5, 8.0),), (n,)), norm, "0")


@pytest.mark.parametrize("kind", _COUPLING_KINDS)
@pytest.mark.parametrize("norm", sorted(_COUPLING_NORMS))
def test_quantile_equals_merge_loop(norm, kind):
    rng = np.random.default_rng(sorted(_COUPLING_NORMS).index(norm) * 10
                                + _COUPLING_KINDS.index(kind))
    for _ in range(34):
        sp = _random_interval(rng, _COUPLING_NORMS[norm](), int(rng.integers(9, 601)))
        mu, nu = _coupling_case(rng, sp.n_nodes, kind)
        ref = _quantile_by_merge_loop(sp, mu, nu)
        assert abs(quantile_transport_cost(sp, mu, nu) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("kind", _COUPLING_KINDS)
@pytest.mark.parametrize("norm", sorted(_COUPLING_NORMS))
def test_quantile_equals_lp_oracle(norm, kind):
    rng = np.random.default_rng(100 + sorted(_COUPLING_NORMS).index(norm) * 10
                                + _COUPLING_KINDS.index(kind))
    for _ in range(3):
        sp = _random_interval(rng, _COUPLING_NORMS[norm](), int(rng.integers(9, 65)))
        mu, nu = _coupling_case(rng, sp.n_nodes, kind)
        lp = lp_transport_cost(_pair_cost_matrix(sp, sp.coords, sp.coords), mu, nu)
        assert abs(quantile_transport_cost(sp, mu, nu) - lp) < 1e-10


@pytest.mark.parametrize("norm", sorted(_COUPLING_NORMS))
def test_quantile_of_a_measure_onto_itself_is_zero(norm):
    rng = np.random.default_rng(7)
    sp = _random_interval(rng, _COUPLING_NORMS[norm](), 300)
    for kind in ("zero-mass", "positive"):
        mu, _ = _coupling_case(rng, sp.n_nodes, kind)
        assert quantile_transport_cost(sp, mu, mu) == 0.0
    assert quantile_transport_cost(sp, sp.cell_mass, sp.cell_mass) == 0.0


def test_quantile_evaluates_the_norm_once(monkeypatch):
    sp = gauss_interval(asym21(), res=256)
    calls = []
    values = type(sp.norm).values

    def counting_values(self, V):
        calls.append(len(V))
        return values(self, V)

    monkeypatch.setattr(type(sp.norm), "values", counting_values)
    mu = (1.0 + 0.3 * np.sin(sp.coords[:, 0])) * sp.cell_mass
    quantile_transport_cost(sp, mu / mu.sum(), sp.cell_mass)
    assert len(calls) == 1


def test_quantile_requires_1d_interval():
    circle = build_space(Domain("circle", (1.0,), (32,)), euclid(), "0")
    with pytest.raises(ValueError):
        quantile_transport_cost(circle, circle.cell_mass, circle.cell_mass)


def test_marginal_validation():
    sp = gauss_interval(euclid(), res=32)
    bad = np.ones(sp.n_nodes)  # mass 32, not 1
    with pytest.raises(ValueError):
        quantile_transport_cost(sp, bad, sp.cell_mass)


def test_lp_cap():
    C = np.zeros((80, 80))
    with pytest.raises(ValueError):
        lp_transport_cost(C, np.full(80, 1 / 80), np.full(80, 1 / 80))


def _lp_by_dense_rows(C, mu, nu):
    """Reference: the transport LP with one dense constraint row per marginal."""
    m, n = C.shape
    rows, rhs = [], []
    for i in range(m):
        a = np.zeros((m, n))
        a[i, :] = 1.0
        rows.append(a.reshape(-1))
        rhs.append(mu[i])
    for j in range(n - 1):
        a = np.zeros((m, n))
        a[:, j] = 1.0
        rows.append(a.reshape(-1))
        rhs.append(nu[j])
    result = linprog(C.reshape(-1), A_eq=np.array(rows), b_eq=np.array(rhs),
                     bounds=(0, None), method="highs")
    assert result.success
    return float(result.fun)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (7, 1), (13, 9), (64, 64)])
def test_lp_equals_dense_row_lp(m, n):
    rng = np.random.default_rng(m * 100 + n)
    C = rng.random((m, n)) ** 2
    mu, nu = rng.random(m), rng.random(n)
    mu, nu = mu / mu.sum(), nu / nu.sum()
    assert lp_transport_cost(C, mu, nu) == pytest.approx(_lp_by_dense_rows(C, mu, nu),
                                                         rel=1e-12, abs=1e-15)


def test_lp_on_the_randers_box_equals_dense_row_lp():
    sp = build_space(Domain("box", (2.0, 2.0), (16, 16)), oblique_randers(), "0")
    mu = (1.0 + 0.45 * np.sin(np.pi * sp.coords[:, 0])) * sp.cell_mass
    xs, wx = coarsen_measure(sp, mu / mu.sum())
    ys, wy = coarsen_measure(sp, sp.cell_mass)
    C = _pair_cost_matrix(sp, xs, ys)
    assert lp_transport_cost(C, wx, wy) == _lp_by_dense_rows(C, wx, wy)


_SCIPY_AFTER = """
import sys
sys.path.insert(0, sys.argv[1])
import finslergamma.cli
code = finslergamma.cli.main(sys.argv[2:]) if sys.argv[2:] else 0
print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(code)
"""


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # fresh interpreters, since this one has imported scipy already: the
    # Newton solve loads scipy.sparse.linalg and only the LP loads
    # scipy.optimize, so the commands without a flow or an LP load no scipy
    src = os.path.dirname(os.path.dirname(finslergamma.__file__))
    root = os.path.dirname(src)

    def scipy_after(command="", config=""):
        argv = [*command.split(), "--config", os.path.join(root, config),
                "--out", str(tmp_path)] if command else []
        run = subprocess.run([sys.executable, "-c", _SCIPY_AFTER, src, *argv],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.splitlines()[-1].split()[1:])

    assert scipy_after() == set()
    no_scipy = [(command, config)
                for config in ("configs/gaussian_asym1d.json", "configs/gaussian_asym1d_finite_n.json")
                for command in ("space describe", "ineq check")]
    # a 2D bundle's tables and 2D effective_K
    no_scipy.append(("space describe", "perfbench/configs/randers_box2d.json"))
    for command, config in no_scipy:
        assert scipy_after(command, config) == set(), (command, config)
    # the dissipation identity takes five implicit steps of the flow
    for command, config in (("identities run", "configs/circle_identities.json"),
                            ("flow run", "configs/gaussian_asym1d.json")):
        loaded = scipy_after(command, config)
        assert "scipy.sparse.linalg" in loaded and "scipy.optimize" not in loaded


def test_coarsen_measure_preserves_mass_and_centroid():
    sp = build_space(Domain("torus", (1.0, 1.0), (16, 16)), euclid(2), "0")
    mu = sp.cell_mass.copy()
    points, weights = coarsen_measure(sp, mu)
    assert len(weights) <= 64
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    mean_fine = mu @ sp.coords
    mean_coarse = weights @ points
    assert np.allclose(mean_fine, mean_coarse, atol=1e-12)


def _coarsen_by_loop(space, p, max_support=64):
    """Reference: per-node accumulation into a dict of blocks, in node order."""
    per_axis = max(1, int(np.floor(max_support ** (1.0 / space.dim))))
    factors = [int(np.ceil(n / per_axis)) for n in space.shape]
    blocks = {}
    for idx in range(space.n_nodes):
        if p[idx] <= 0:
            continue
        key = tuple(m // f for m, f in zip(np.unravel_index(idx, space.shape), factors))
        mass, moment = blocks.get(key, (0.0, np.zeros(space.dim)))
        blocks[key] = (mass + p[idx], moment + p[idx] * space.coords[idx])
    keys = sorted(blocks)
    return (np.stack([blocks[k][1] / blocks[k][0] for k in keys]),
            np.array([blocks[k][0] for k in keys]))


@pytest.mark.parametrize("geometry, lengths, resolution", [
    ("box", (2.0, 2.0), (32, 32)), ("torus", (1.0, 2.0), (24, 40)),
    ("box", (1.0, 1.0), (17, 13)), ("circle", (1.0,), (200,)),
])
def test_coarsen_measure_equals_node_loop(geometry, lengths, resolution):
    sp = build_space(Domain(geometry, lengths, resolution), euclid(len(lengths)), "0")
    rng = np.random.default_rng(3)
    n = sp.n_nodes
    # no zero mass, scattered zero-mass nodes, and a run of empty blocks
    for zero in (np.zeros(n, bool), rng.random(n) < 0.3, np.arange(n) < n // 3):
        p = np.where(zero, 0.0, rng.random(n))
        p /= p.sum()
        points, weights = coarsen_measure(sp, p)
        ref_points, ref_weights = _coarsen_by_loop(sp, p)
        assert np.array_equal(points, ref_points)
        assert np.array_equal(weights, ref_weights)


def test_2d_transport_periodic_shift():
    sp = build_space(Domain("torus", (1.0, 1.0), (16, 16)), euclid(2), "0")
    x, y = sp.coords[:, 0], sp.coords[:, 1]
    # a one-cell shift costs at most the shift distance squared
    mu = np.roll(sp.cell_mass.reshape(16, 16), 1, axis=0).reshape(-1)
    cost = transport_cost_sq(sp, mu, sp.cell_mass)
    assert 0.0 <= cost <= (1.0 / 16) ** 2 + 1e-12


# a quartic weight on a 6-wide box: some coarse masses of the bank's
# measures are about 1e-8, below HiGHS's 1e-7 primal feasibility tolerance,
# and presolve called their LP infeasible (exit 3)
STEEP_BOX = {
    "space": {
        "domain": {"geometry": "box", "lengths": [6.0, 6.0], "resolution": [32, 32]},
        "norm": {"variant": "randers", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                 "drift": [0.3, 0.1]},
        "psi": "(x**2 + y**2) + 0.5*(x**4 + y**4)",
    },
    "n_values": [1000000],
    "checkers": ["talagrand"],
    "bank": {"seed": 3, "size": 12},
}


def test_the_transport_lp_solves_on_a_steep_weight(tmp_path):
    config = tmp_path / "steep.json"
    config.write_text(json.dumps(STEEP_BOX))
    code = main(["ineq", "check", "--config", str(config), "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "ineq_report.json").read_text())
    assert doc["error"] is None
    assert code in (0, 1)
    assert [c["checker"] for c in doc["checks"]] == ["talagrand"] * 12

def _counting_linprog(monkeypatch):
    """Record the number of arcs of every LP solve made by lp_transport_cost."""
    arcs = []
    solve = scipy.optimize.linprog

    def counting(c, **kwargs):
        arcs.append(len(c))
        return solve(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return arcs


def _assert_matches_dense_lp(C, mu, nu):
    ref = _lp_by_dense_rows(C, mu, nu)
    assert abs(lp_transport_cost(C, mu, nu) - ref) <= 1e-12 * abs(ref) + 1e-15


def _random_marginal(rng, n, zero_share):
    p = np.where(rng.random(n) < zero_share, 0.0, rng.random(n))
    p[rng.integers(n)] = 1.0
    return p / p.sum()


def test_lp_equals_dense_row_lp_on_random_costs():
    rng = np.random.default_rng(11)
    for case in range(40):
        m, n = rng.integers(1, 65, size=2)
        # uniform, heavy-tailed, and small integers with many tied arcs
        C = [rng.random((m, n)), rng.exponential(size=(m, n)) ** 3,
             rng.integers(0, 4, size=(m, n)).astype(float)][case % 3]
        zero_share = 0.4 if case % 2 else 0.0
        _assert_matches_dense_lp(C, _random_marginal(rng, m, zero_share),
                                 _random_marginal(rng, n, zero_share))


@pytest.mark.parametrize("geometry", ["box", "torus"])
@pytest.mark.parametrize("res", [16, 32, 64])
def test_lp_equals_dense_row_lp_on_oblique_randers(geometry, res):
    norm = RandersNorm(np.array([[1.3, 0.4], [0.4, 0.8]]), (0.3, -0.2))
    sp = build_space(Domain(geometry, (2.0, 2.0), (res, res)), norm, "0")
    rng = np.random.default_rng(res)
    x, y = sp.coords.T
    for _ in range(3):
        a, b, c = rng.uniform(-0.8, 0.8, size=3)
        mu = np.exp(a * np.sin(np.pi * x) + b * np.cos(np.pi * y) + c * x * y) * sp.cell_mass
        xs, wx = coarsen_measure(sp, mu / mu.sum())
        ys, wy = coarsen_measure(sp, sp.cell_mass)
        _assert_matches_dense_lp(_pair_cost_matrix(sp, xs, ys), wx, wy)


def test_lp_adds_arcs_until_no_reduced_cost_is_negative(monkeypatch):
    # one start arc per row and column, and points in the plane in an order
    # that makes the monotone coupling far from optimal: the LP must grow
    monkeypatch.setattr(finslergamma.transport, "_START_ARCS", 1)
    arcs = _counting_linprog(monkeypatch)
    rng = np.random.default_rng(5)
    xs, ys = rng.random((40, 2)), rng.random((40, 2))
    C = ((ys[None, :, :] - xs[:, None, :]) ** 2).sum(axis=2)
    mu, nu = _random_marginal(rng, 40, 0.0), _random_marginal(rng, 40, 0.0)
    _assert_matches_dense_lp(C, mu, nu)
    assert len(arcs) >= 2
    assert arcs == sorted(arcs)


def test_lp_solves_on_a_small_share_of_the_arcs(monkeypatch):
    arcs = _counting_linprog(monkeypatch)
    sp = build_space(Domain("box", (2.0, 2.0), (32, 32)), oblique_randers(), "x**2/2")
    mu = (1.0 + 0.45 * np.sin(np.pi * sp.coords[:, 0])) * sp.cell_mass
    transport_cost_sq(sp, mu / mu.sum())
    assert max(arcs) < 64 * 64 // 4


@pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [0.5, 0.5], [[0.5, 0.5, 0.0]]])
def test_lp_rejects_bad_marginals(bad):
    with pytest.raises(ValueError, match="mu"):
        lp_transport_cost(np.ones((3, 4)), bad, np.full(4, 0.25))
    with pytest.raises(ValueError, match="nu"):
        lp_transport_cost(np.ones((4, 3)), np.full(4, 0.25), bad)


def _far_nan_cost():
    C = np.add.outer(np.arange(20.0), np.arange(20.0)) ** 2
    C[0, -1] = np.nan  # among the dearest arcs of its row and of its column
    return C


@pytest.mark.parametrize("C", [np.full((3, 3), np.inf), _far_nan_cost(), np.ones(9),
                               np.ones((3, 3, 1))])
def test_lp_rejects_bad_cost_matrices(C):
    p = np.full(len(C), 1 / len(C))
    with pytest.raises(ValueError, match="cost matrix"):
        lp_transport_cost(C, p, p)


def test_quantile_rejects_bad_marginals():
    sp = gauss_interval(euclid(), res=32)
    nan = sp.cell_mass.copy()
    nan[3] = np.nan
    for bad in (nan, sp.cell_mass[:-1], sp.cell_mass[None, :]):
        with pytest.raises(ValueError, match="mu"):
            quantile_transport_cost(sp, bad, sp.cell_mass)
        with pytest.raises(ValueError, match="nu"):
            quantile_transport_cost(sp, sp.cell_mass, bad)

import numpy as np
import pytest

from finslergamma import Domain, build_space, integrate, transport_cost_sq
from finslergamma.transport import _pair_cost_matrix

from conftest import (NOT_FINITE_POSITIVE, asym21, dirac, euclid, formula_axis_coords, formula_axis_spacing,
                      gauss_interval, sliced_cell_volumes)

# the grids on which the per-axis rule is pinned to the oracle formulas of
# conftest, each with a Psi that is not constant
GRIDS = [
    (Domain("interval", (2.0,), (9,)), "x**2/2 + 0.3*sin(3*x)"),
    (Domain("interval", (6.0,), (256,)), "x**2/2 + 0.05*x**3"),
    (Domain("circle", (1.0,), (128,)), "0.4*sin(2*pi*x) + 0.1*cos(6*pi*x)"),
    (Domain("box", (2.0, 3.0), (8, 12)), "(x**2 + y**2)/2 + 0.2*x*y + 0.1*x**3"),
    (Domain("box", (2.0, 2.0), (32, 32)), "(x**2 + y**2)/2 + 0.05*y**3"),
    (Domain("torus", (1.0, 2.0), (12, 15)), "0.3*sin(2*pi*x)*cos(pi*y) + 0.1*cos(pi*y)"),
]
GRID_IDS = [f"{d.geometry}-{'x'.join(map(str, d.resolution))}" for d, _ in GRIDS]


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain("interval", (6.0,), (4,))  # resolution floor
    with pytest.raises(ValueError):
        Domain("interval", (-1.0,), (32,))
    with pytest.raises(ValueError):
        Domain("blob", (1.0,), (32,))
    with pytest.raises(ValueError):
        Domain("box", (1.0,), (32,))  # 2D geometry needs two lengths


@pytest.mark.parametrize("domain, psi", GRIDS, ids=GRID_IDS)
def test_grid_and_cell_mass_are_the_formulas_bit_for_bit(domain, psi):
    sp = build_space(domain, euclid(domain.dim), psi)
    axes = [formula_axis_coords(domain, a) for a in range(domain.dim)]
    coords = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert np.array_equal(sp.coords, coords)
    assert sp.h == tuple(formula_axis_spacing(domain, a) for a in range(domain.dim))
    mass = np.exp(-(sp.psi - sp.psi.min())) * sliced_cell_volumes(domain).reshape(-1)
    assert np.array_equal(sp.cell_mass, mass / mass.sum())


@pytest.mark.parametrize("domain, _", GRIDS, ids=GRID_IDS)
def test_no_flux_faces_carry_half_cells_and_corners_quarter_cells(domain, _):
    sp = build_space(domain, euclid(domain.dim), "0")
    on_faces = sum((i == 0) | (i == n - 1)
                   for i, n in zip(np.indices(domain.resolution), domain.resolution))
    expected = np.ones(domain.resolution) if domain.periodic else 0.5 ** on_faces
    assert np.array_equal(sp.cell_mass.reshape(domain.resolution) / sp.cell_mass.max(),
                          expected)


@pytest.mark.parametrize("bad", NOT_FINITE_POSITIVE)
def test_domain_lengths_need_finite_positive_values(bad):
    with pytest.raises(ValueError, match="^lengths must be finite and positive$"):
        Domain("box", (2.0, bad), (16, 16))


def test_build_space_normalization():
    sp = gauss_interval(euclid())
    assert abs(sp.cell_mass.sum() - 1.0) < 1e-12
    assert np.all(sp.cell_mass > 0)

    circle = build_space(Domain("circle", (1.0,), (128,)), euclid(), "0")
    assert np.allclose(circle.cell_mass, 1.0 / 128)

    torus = build_space(Domain("torus", (1.0, 1.0), (64, 64)), euclid(2),
                        "0.1*sin(2*pi*x)*cos(2*pi*y)")
    assert abs(torus.cell_mass.sum() - 1.0) < 1e-12
    assert torus.n_nodes == 64 * 64


def test_build_space_rejects_bad_weight():
    with pytest.raises(ValueError):
        build_space(Domain("interval", (6.0,), (64,)), euclid(), "log(x - 10)")
    with pytest.raises(ValueError):
        build_space(Domain("interval", (6.0,), (64,)), euclid(), "x +")
    with pytest.raises(ValueError):
        build_space(Domain("interval", (6.0,), (64,)), asym21().reverse().reverse(),
                    "exp(x**2)*1e30")  # overflowing weight kills normalization
    with pytest.raises(ValueError):
        build_space(Domain("interval", (6.0,), (64,)), euclid(2), "0")  # dim mismatch


def test_psi_shift_invariance():
    a = gauss_interval(euclid())
    # exp(-Psi) itself underflows at + 1000 and overflows at - 800; Psi + c
    # is rounded to half an ulp of c, which exp passes on as a relative error
    for shift in (5.0, 1000.0, -800.0):
        b = build_space(Domain("interval", (6.0,), (256,)), euclid(), f"x**2/2 + ({shift})")
        assert np.allclose(a.cell_mass, b.cell_mass,
                           rtol=1e-14 + 2 * np.spacing(abs(shift)), atol=1e-18), shift


def test_integrate_basic():
    sp = gauss_interval(euclid())
    one = np.ones(sp.n_nodes)
    x = sp.coords[:, 0]
    assert integrate(sp, one) == pytest.approx(1.0, abs=1e-13)
    assert abs(integrate(sp, x)) < 1e-10
    # linearity and monotonicity
    f, g = np.sin(x), np.cos(x)
    assert integrate(sp, 2 * f + 3 * g) == pytest.approx(
        2 * integrate(sp, f) + 3 * integrate(sp, g), abs=1e-14)
    assert integrate(sp, np.abs(f)) >= integrate(sp, f)


def test_integrate_second_moment_against_refined_quadrature():
    coarse = gauss_interval(euclid(), res=256)
    fine = gauss_interval(euclid(), res=2560)
    m2_coarse = integrate(coarse, coarse.coords[:, 0] ** 2)
    m2_fine = integrate(fine, fine.coords[:, 0] ** 2)
    assert m2_coarse == pytest.approx(m2_fine, abs=1e-4)
    assert m2_fine == pytest.approx(1.0, abs=0.05)  # truncated Gaussian


def test_asym_distance_examples():
    # W2^2 between point masses is d(x, y)^2 = F(y - x)^2, the first the source
    sp = build_space(Domain("interval", (2.0,), (9,)), asym21(), "0")
    d0, d1 = dirac(sp, [0.0]), dirac(sp, [1.0])
    assert transport_cost_sq(sp, d0, d1) == pytest.approx(4.0)
    assert transport_cost_sq(sp, d1, d0) == pytest.approx(1.0)
    assert transport_cost_sq(sp, d0, d0) == 0.0

    # across the seam, by the LP: a point mass's coarse block keeps its node
    # as centroid; 0 -> 0.75 is a step of -0.25, and 0.75 -> 0 one of 0.25
    circle = build_space(Domain("circle", (1.0,), (128,)), asym21(), "0")
    e0, e1 = dirac(circle, [0.0]), dirac(circle, [0.75])
    assert transport_cost_sq(circle, e0, e1) == pytest.approx(0.0625)
    assert transport_cost_sq(circle, e1, e0) == pytest.approx(0.25)


@pytest.mark.parametrize("make", [
    lambda: build_space(Domain("interval", (6.0,), (64,)), asym21(), "x**2/2"),
    lambda: build_space(Domain("torus", (1.0, 2.0), (16, 16)), euclid(2), "0"),
])
def test_asym_distance_triangle_inequality(make):
    # d(x_i, x_j) = F(x_j - x_i), over lattice translates: the transport cost
    sp = make()
    d = np.sqrt(_pair_cost_matrix(sp, sp.coords, sp.coords))
    rng = np.random.default_rng(0)
    for _ in range(100):
        i, j, k = rng.integers(0, sp.n_nodes, size=3)
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_field_from_expression():
    sp = gauss_interval(euclid(), res=64)
    f = sp.field_from_expression("1 + 0.1*cos(2*pi*x/6)")
    assert f.shape == (64,)
    with pytest.raises(ValueError):
        sp.field_from_expression("y")  # no y on a 1D grid
    coords = sp.coords.copy()
    for expr in ("x.real", "[x][0]", "sin(x, x)", "sin(x=x)", "sin(*[x])", "x if 1 else x",
                 "x // 2", "True*x", "(lambda: x)()", "__import__('os')"):
        with pytest.raises(ValueError, match="cannot evaluate"):
            sp.field_from_expression(expr)
    assert np.array_equal(sp.coords, coords)  # sin(x, x) would write into x

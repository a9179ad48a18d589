import numpy as np
import pytest

from finslergamma import Domain, asym_distance, build_space, integrate

from conftest import asym21, euclid, gauss_interval


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain("interval", (6.0,), (4,))  # resolution floor
    with pytest.raises(ValueError):
        Domain("interval", (-1.0,), (32,))
    with pytest.raises(ValueError):
        Domain("blob", (1.0,), (32,))
    with pytest.raises(ValueError):
        Domain("box", (1.0,), (32,))  # 2D geometry needs two lengths


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
    sp = build_space(Domain("interval", (2.0,), (9,)), asym21(), "0")
    i0, i1 = sp.node_index([0.0]), sp.node_index([1.0])
    assert asym_distance(sp, i0, i1) == pytest.approx(2.0)
    assert asym_distance(sp, i1, i0) == pytest.approx(1.0)
    assert asym_distance(sp, i0, i0) == 0.0

    circle = build_space(Domain("circle", (1.0,), (128,)), euclid(), "0")
    j0, j1 = circle.node_index([0.0]), circle.node_index([0.75])
    assert asym_distance(circle, j0, j1) == pytest.approx(0.25)


@pytest.mark.parametrize("make", [
    lambda: build_space(Domain("interval", (6.0,), (64,)), asym21(), "x**2/2"),
    lambda: build_space(Domain("torus", (1.0, 2.0), (16, 16)), euclid(2), "0"),
])
def test_asym_distance_triangle_inequality(make):
    sp = make()
    rng = np.random.default_rng(0)
    for _ in range(100):
        i, j, k = rng.integers(0, sp.n_nodes, size=3)
        dij = asym_distance(sp, i, j)
        djk = asym_distance(sp, j, k)
        dik = asym_distance(sp, i, k)
        assert dik <= dij + djk + 1e-12


def test_field_from_expression():
    sp = gauss_interval(euclid(), res=64)
    f = sp.field_from_expression("1 + 0.1*cos(2*pi*x/6)")
    assert f.shape == (64,)
    with pytest.raises(ValueError):
        sp.field_from_expression("y")  # no y on a 1D grid

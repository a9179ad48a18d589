import gc
import math
import os
import weakref

import numpy as np
import pytest

from finslergamma import (Domain, DiffOperators, EuclideanNorm, FlowParams, RandersNorm,
                          build_space, check_bochner_pointwise, check_dEdt_identity,
                          check_gamma2_integral, effective_K, evolve, integrate,
                          make_test_bank, operators_for, run_checker_matrix)
from finslergamma.calculus import KINK_DILATION
from finslergamma.config import load_config
from finslergamma.space import MIN_RESOLUTION, variance

from conftest import (asym21, csr_derivatives, euclid, gauss_interval, oblique_randers,
                      rolled_kink_mask, sliced_interior, summed_products_matrix,
                      uniform_circle)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def max_interior(ops, values):
    return float(np.max(np.abs(values)[ops.interior]))


def energy(ops, f):
    """The Dirichlet energy int F^2(grad f) dm / 2."""
    return 0.5 * integrate(ops.space, ops.field(f).dual_sq)


def linearized_gradient(ops, f, u):
    """Ginv(grad f) Du, whose divergence is ops.linearized_laplacian(f, u)."""
    return np.einsum("mij,mj->mi", ops.field(f).Ginv, ops.differential(u))


def test_differential_annihilates_constants_and_is_exact_on_affine():
    sp = gauss_interval(euclid(), res=64)
    ops = operators_for(sp)
    assert np.allclose(ops.differential(np.full(64, 3.7)), 0.0, atol=1e-13)
    x = sp.coords[:, 0]
    Df = ops.differential(2.5 * x - 1.0)
    assert np.allclose(Df[:, 0], 2.5, atol=1e-10)  # one-sided rows included


def test_differential_trig_convergence():
    errs = []
    for res in (128, 256):
        sp = uniform_circle(euclid(), res=res)
        ops = operators_for(sp)
        x = sp.coords[:, 0]
        Df = ops.differential(np.sin(2 * np.pi * x))[:, 0]
        errs.append(np.max(np.abs(Df - 2 * np.pi * np.cos(2 * np.pi * x))))
    assert np.log2(errs[0] / errs[1]) > 1.9


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


_LOWEST = (MIN_RESOLUTION, MIN_RESOLUTION)


@pytest.mark.parametrize("domain", [
    Domain("interval", (6.0,), (256,)), Domain("interval", (2.0,), _LOWEST[:1]),
    Domain("circle", (1.0,), (96,)), Domain("circle", (1.0,), _LOWEST[:1]),
    Domain("box", (1.0, 2.0), (16, 12)), Domain("box", (1.0, 2.0), _LOWEST),
    Domain("torus", (1.0, 2.0), (12, 15)), Domain("torus", (1.0, 1.0), _LOWEST),
], ids=lambda d: f"{d.geometry}-{'x'.join(map(str, d.resolution))}")
def test_stencil_operators_equal_the_csr_products_bit_for_bit(domain):
    sp = build_space(domain, euclid(domain.dim), "0.3*x" if domain.dim == 1 else "0.1*x*y")
    ops = DiffOperators(sp)
    D, DT = csr_derivatives(sp)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(sp.n_nodes)
    V = rng.standard_normal((sp.n_nodes, sp.dim))
    # a row whose products are all -0.0 sums to 0.0 from 0.0, not to -0.0
    f[::4], f[2::4], V[::4], V[2::4] = 0.0, -0.0, 0.0, -0.0
    for x in (f, -f, np.exp(f)):
        Dx = ops.differential(x)
        for a in range(sp.dim):
            assert _bits(Dx[:, a]) == _bits(D[a] @ x)
    m = sp.cell_mass
    for W in (V, -V):
        div = np.zeros(sp.n_nodes)
        for a in range(sp.dim):
            div -= DT[a] @ (m * W[:, a])
        assert _bits(ops.divergence(W)) == _bits(div / m)


_BAND_GRIDS = [
    Domain("interval", (2.0,), (8,)), Domain("interval", (2.0,), (9,)),
    Domain("interval", (6.0,), (256,)), Domain("circle", (1.0,), (128,)),
    Domain("box", (1.0, 1.0), (8, 8)), Domain("box", (1.0, 2.0), (12, 17)),
    Domain("box", (2.0, 2.0), (32, 32)), Domain("torus", (1.0, 2.0), (12, 15)),
]


def _grid_id(domain):
    return f"{domain.geometry}-{'x'.join(map(str, domain.resolution))}"


def _band_space(domain):
    if domain.dim == 1:
        return build_space(domain, asym21(), "x**2/2")
    return build_space(domain, oblique_randers(), "(x**2 + y**2)/2")


@pytest.mark.parametrize("domain", _BAND_GRIDS, ids=_grid_id)
def test_interior_is_the_sliced_boundary_band(domain):
    sp = _band_space(domain)
    ops = DiffOperators(sp)
    assert np.array_equal(ops.interior, sliced_interior(sp, DiffOperators.BOUNDARY_WIDTH))


@pytest.mark.parametrize("domain", _BAND_GRIDS, ids=_grid_id)
def test_kink_mask_is_the_rolled_band_in_the_interior(domain):
    sp = _band_space(domain)
    ops = DiffOperators(sp)
    faces = ~sliced_interior(sp, 1)  # the nodes of the one-sided rows
    for seed in range(3):
        for _, g in make_test_bank(sp, seed=seed):
            for f in (g, -g, np.abs(g), g**2):
                kink = ops.field(f).kink
                rolled = rolled_kink_mask(ops, f, KINK_DILATION)
                assert np.array_equal(kink & ops.interior, rolled & ops.interior)
                # a one-sided row also reads the node two steps in
                assert not np.any((kink != rolled) & ~faces)


def test_gradient_closed_forms():
    sp = gauss_interval(asym21(), res=128)
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    assert np.allclose(ops.field(x).grad[:, 0], 0.25, atol=1e-10)
    assert np.allclose(ops.field(-x).grad[:, 0], -1.0, atol=1e-10)
    assert np.all(ops.field(np.ones(128)).grad == 0.0)
    for c in (0.3, -7.1e5, 1e-12):  # their one-sided rows give Df at rounding level
        assert np.all(ops.field(np.full(128, c)).grad == 0.0)
    # a field whose central differences all vanish has no direction anywhere
    circle = operators_for(uniform_circle(asym21(), res=64))
    assert circle.field(np.resize([1.0, -1.0], 64)).degenerate.all()

    spe = gauss_interval(euclid(), res=128)
    opse = operators_for(spe)
    f = np.sin(spe.coords[:, 0])
    assert np.allclose(opse.field(f).grad, opse.differential(f))


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
def test_gradient_threshold_is_relative_to_the_field(scale):
    # the degenerate nodes of s f are those of f: a small datum keeps its gradient
    sp = gauss_interval(asym21(), res=128)
    ops = operators_for(sp)
    f = np.maximum(sp.coords[:, 0], 0.0) ** 2  # flat on x < 0
    base, scaled = ops.field(f), ops.field(scale * f)
    assert np.array_equal(scaled.degenerate, base.degenerate)
    assert base.degenerate.any() and not base.degenerate.all()
    assert np.allclose(scaled.grad, scale * base.grad, rtol=1e-12, atol=0.0)


def test_divergence_is_exact_negative_adjoint():
    rng = np.random.default_rng(0)
    for domain, norm in [
        (Domain("interval", (6.0,), (128,)), euclid()),
        (Domain("circle", (1.0,), (96,)), asym21()),
        (Domain("box", (1.0, 2.0), (16, 12)), euclid(2)),
        (Domain("torus", (1.0, 1.0), (16, 16)), euclid(2)),
    ]:
        sp = build_space(domain, norm, "0.3*x" if domain.dim == 1 else "0.1*x")
        ops = operators_for(sp)
        for _ in range(25):
            phi = rng.standard_normal(sp.n_nodes)
            V = rng.standard_normal((sp.n_nodes, sp.dim))
            lhs = integrate(sp, phi * ops.divergence(V))
            rhs = -integrate(sp, np.einsum("mi,mi->m", ops.differential(phi), V))
            assert abs(lhs - rhs) < 1e-13


def test_divergence_analytic_oracle_on_circle():
    errs = []
    for res in (128, 256):
        sp = uniform_circle(euclid(), res=res)
        ops = operators_for(sp)
        x = sp.coords[:, 0]
        V = np.cos(2 * np.pi * x)[:, None]
        err = np.abs(ops.divergence(V) + 2 * np.pi * np.sin(2 * np.pi * x))
        errs.append(err.max())
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_laplacian_weighted_oracles():
    sp = gauss_interval(euclid())
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    assert np.allclose(ops.laplacian(np.full(sp.n_nodes, 2.0)), 0.0, atol=1e-12)
    # f = x on the Gaussian weight: f'' - psi' f' = -x
    assert max_interior(ops, ops.laplacian(x) + x) < 3e-3

    spa = gauss_interval(asym21())
    opsa = operators_for(spa)
    xa = spa.coords[:, 0]
    assert max_interior(opsa, opsa.laplacian(xa) + xa / 4) < 1e-3


def test_laplacian_conserves_mass():
    sp = gauss_interval(asym21(), res=128)
    ops = operators_for(sp)
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rng.standard_normal(sp.n_nodes)
        assert abs(integrate(sp, ops.laplacian(f))) < 1e-12


def test_exact_integration_by_parts_through_laplacian():
    sp = gauss_interval(asym21(), res=128)
    ops = operators_for(sp)
    rng = np.random.default_rng(2)
    for _ in range(10):
        phi = rng.standard_normal(sp.n_nodes)
        f = rng.standard_normal(sp.n_nodes)
        lhs = integrate(sp, phi * ops.laplacian(f))
        rhs = -integrate(sp, np.einsum("mi,mi->m", ops.differential(phi), ops.field(f).grad))
        assert abs(lhs - rhs) < 1e-13


def test_linearized_operators():
    spe = gauss_interval(euclid(), res=128)
    opse = operators_for(spe)
    x = spe.coords[:, 0]
    u = np.sin(x)
    # Euclidean: frozen-direction operators coincide with the plain ones
    assert np.allclose(linearized_gradient(opse, u, u), opse.field(u).grad)
    assert np.allclose(opse.linearized_laplacian(x**2, u), opse.laplacian(u))

    spa = gauss_interval(asym21(), res=128)
    opsa = operators_for(spa)
    xa = spa.coords[:, 0]
    # identity at the base point: grad^{grad f} f = grad f, Lap^{grad f} f = Lap f
    for f in (xa, -xa, xa + 0.2 * np.sin(xa)):
        assert np.allclose(linearized_gradient(opsa, f, f), opsa.field(f).grad,
                           rtol=1e-12, atol=1e-14)
        assert np.allclose(opsa.linearized_laplacian(f, f), opsa.laplacian(f),
                           rtol=1e-12, atol=1e-12)
    # closed form: f = x freezes g = alpha^2 = 4, so the map is Du/4
    lg = linearized_gradient(opsa, xa, xa**2)
    assert max_interior(opsa, lg[:, 0] - xa / 2) < 1e-10
    assert np.allclose(opsa.linearized_laplacian(xa, np.full(128, 1.3)), 0.0,
                       atol=1e-12)


def test_linearized_laplacian_matrix_matches_operator():
    box = build_space(Domain("box", (2.0, 2.0), (14, 12)), oblique_randers(),
                      "(x**2 + y**2)/2")
    for sp in (gauss_interval(asym21(), res=96), box):
        ops = operators_for(sp)
        x = sp.coords[:, 0]
        f = x + 0.3 * np.sin(x) + 0.2 * np.cos(sp.coords[:, -1])
        L = ops.linearized_laplacian_matrix(f)  # L[:, q]
        q = ops.linearized_pattern.order
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(sp.n_nodes)
            assert np.allclose(L @ u[q], ops.linearized_laplacian(f, u), atol=1e-10)


@pytest.mark.parametrize("geometry, norm, resolution", [
    ("interval", asym21, (64,)),
    ("circle", asym21, (48,)),
    ("box", oblique_randers, (16, 16)),
    ("torus", oblique_randers, (12, 15)),
])
def test_linearized_laplacian_matrix_equals_summed_products(geometry, norm, resolution):
    sp = build_space(Domain(geometry, (2.0,) * len(resolution), resolution), norm(), "0")
    ops = DiffOperators(sp)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(sp.n_nodes)
    f.reshape(resolution)[tuple(slice(3, 9) for _ in resolution)] = 0.4  # flat patch
    assert np.any(ops.field(f).degenerate)  # fallback rows covered
    stored_zeros = 0
    # a linear field has parallel gradients, whose cross terms cancel exactly
    # along a box edge: those entries are stored zeros the products prune;
    # whether x or -x cancels exactly depends on how Ginv rounds, so both run
    q = ops.linearized_pattern.order
    for g in (f, np.sin(3 * f), sp.coords[:, 0], -sp.coords[:, 0]):
        L = ops.linearized_laplacian_matrix(g)
        stored_zeros += np.count_nonzero(L.data == 0)
        oracle = summed_products_matrix(ops, g)[:, q]
        assert L.format == "csc"
        assert np.array_equal(L.toarray(), oracle.toarray())
        pruned = L.copy()
        pruned.eliminate_zeros()  # pruned, even the structure is the products'
        assert np.array_equal(pruned.indptr, oracle.indptr)
        assert np.array_equal(pruned.indices, oracle.indices)
        assert np.array_equal(pruned.data, oracle.data)
    assert stored_zeros > 0 or geometry != "box"


def test_gamma2_oracles():
    sp = gauss_interval(euclid())
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    assert np.allclose(ops.field(np.full(sp.n_nodes, 4.0)).g2, 0.0, atol=1e-12)
    # f = x: Gamma2 = (f'')^2 + psi'' (f')^2 = 1
    assert max_interior(ops, ops.field(x).g2 - 1.0) < 3e-3

    errs = []
    for res in (128, 256):
        spc = uniform_circle(euclid(), res=res)
        opsc = operators_for(spc)
        xc = spc.coords[:, 0]
        f = np.sin(2 * np.pi * xc)
        oracle = (2 * np.pi) ** 4 * np.sin(2 * np.pi * xc) ** 2
        errs.append(np.max(np.abs(opsc.field(f).g2 - oracle)) / oracle.max())
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_energy():
    sp = gauss_interval(euclid())
    ops = operators_for(sp)
    x = sp.coords[:, 0]
    assert energy(ops, np.full(sp.n_nodes, 2.0)) == 0.0
    assert energy(ops, x) == pytest.approx(0.5, rel=1e-12)
    assert energy(ops, np.sin(x)) > 0.0

    spa = gauss_interval(asym21())
    assert energy(operators_for(spa), spa.coords[:, 0]) == pytest.approx(0.125, rel=1e-12)


def test_exp_chain_rule_identity_orders():
    for norm in (euclid(), asym21()):
        residuals = []
        for res in (128, 256):
            sp = uniform_circle(norm, res=res)
            ops = operators_for(sp)
            h = 0.3 * np.sin(2 * np.pi * sp.coords[:, 0])
            residuals.append(ops.identity_exp_chain(h, 0.5))
        assert np.log2(residuals[0] / residuals[1]) > 1.8


@pytest.mark.parametrize("a", [0.25, 1.0])
def test_exp_gamma2_identity_orders(a):
    for norm in (euclid(), asym21()):
        residuals = []
        for res in (128, 256):
            sp = uniform_circle(norm, res=res)
            ops = operators_for(sp)
            h = 0.3 * np.sin(2 * np.pi * sp.coords[:, 0])
            residuals.append(ops.identity_exp_gamma2(h, a))
        assert np.log2(residuals[0] / residuals[1]) > 1.8


def test_exp_bochner_integral_identity():
    for norm in (euclid(), asym21()):
        gaps = []
        for res in (128, 256):
            sp = uniform_circle(norm, res=res)
            ops = operators_for(sp)
            x = sp.coords[:, 0]
            h = 0.2 * np.sin(2 * np.pi * x) + 0.1 * np.cos(4 * np.pi * x)
            gaps.append(ops.identity_exp_bochner_integrals(h, 0.25))
        assert np.log2(gaps[0] / gaps[1]) > 1.8
    # constants give 0 = 0
    sp = uniform_circle(euclid(), res=64)
    ops = operators_for(sp)
    assert ops.identity_exp_bochner_integrals(np.zeros(64), 0.5) == 0.0


def test_exp_identities_reject_bad_inputs():
    sp = gauss_interval(euclid(), res=64)
    ops = operators_for(sp)
    with pytest.raises(ValueError):
        ops.identity_exp_gamma2(np.zeros(64), -1.0)
    with pytest.raises(ValueError):
        ops.identity_exp_bochner_integrals(np.zeros(64), 0.5)  # needs periodic



@pytest.mark.parametrize("domain", [Domain("interval", (2.0,), (8,)),
                                    Domain("box", (2.0, 3.0), (8, 12))], ids=_grid_id)
def test_each_pointwise_statement_names_a_grid_without_interior_nodes(domain):
    # MIN_RESOLUTION admits 8 nodes, but the boundary band takes 4 from each end
    sp = build_space(domain, oblique_randers() if domain.dim == 2 else asym21(), "0")
    ops = operators_for(sp)
    assert not ops.interior.any()
    g = sp.field_from_expression("1 + 0.1*x")
    states = evolve(ops, g, FlowParams(tau=1e-3, t_end=2e-3))
    calls = {
        "check_bochner_pointwise": lambda: check_bochner_pointwise(sp, g, math.inf, 0.0),
        "run_checker_matrix": lambda: run_checker_matrix(sp, [math.inf], ["bochner_pointwise"],
                                                         bank=[("g", g)], override_K=0.0),
        "check_dEdt_identity": lambda: check_dEdt_identity(ops, states),
        "identity_exp_chain": lambda: ops.identity_exp_chain(g, 1.0),
        "identity_exp_gamma2": lambda: ops.identity_exp_gamma2(g, 1.0),
    }
    for caller, call in calls.items():
        name = "check_bochner_pointwise" if caller == "run_checker_matrix" else caller
        with pytest.raises(ValueError, match=f"^{name}: .* more than 8 nodes$"):
            call()

def test_randers_2d_operators_smoke():
    norm = RandersNorm(np.eye(2), (0.3, 0.1))
    sp = build_space(Domain("torus", (1.0, 1.0), (12, 12)), norm, "0")
    ops = operators_for(sp)
    x, y = sp.coords[:, 0], sp.coords[:, 1]
    f = 0.2 * np.sin(2 * np.pi * x) + 0.1 * np.cos(2 * np.pi * y)
    grad = ops.field(f).grad
    Df = ops.differential(f)
    # Legendre consistency nodewise: F(grad f) = F*(Df)
    assert np.allclose(norm.values(grad) ** 2, norm.dual_sq_values(Df),
                       rtol=1e-8, atol=1e-12)
    assert abs(integrate(sp, ops.laplacian(f))) < 1e-12
    assert energy(ops, f) > 0


@pytest.mark.parametrize("make_norm", [
    lambda: EuclideanNorm(np.array([[1.2, 0.2], [0.2, 0.9]])),
    lambda: RandersNorm(np.eye(2), (0.4, 0.1)),
])
def test_identities_converge_on_2d_torus(make_norm):
    norm = make_norm()
    residuals = []
    for n in (24, 48):
        sp = build_space(Domain("torus", (1.0, 1.0), (n, n)), norm, "0")
        ops = operators_for(sp)
        x, y = sp.coords[:, 0], sp.coords[:, 1]
        h = 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) \
            + 0.1 * np.cos(2 * np.pi * y)
        residuals.append((ops.identity_exp_chain(h, 0.5),
                          ops.identity_exp_gamma2(h, 0.5),
                          ops.identity_exp_bochner_integrals(h, 0.5)))
    for r_coarse, r_fine in zip(*residuals):
        assert np.log2(r_coarse / r_fine) > 1.8


def _checkerboard(space):
    """(-1)^(sum_a i_a) at mean zero and unit variance, and each node's parity."""
    parity = np.indices(space.shape).sum(axis=0).reshape(-1) % 2
    f = (-1.0) ** parity
    f = f - integrate(space, f)
    return f / math.sqrt(variance(space, f)), parity


@pytest.mark.parametrize("config, coupled, stored", [
    ("configs/circle_identities.json", 0, 384),
    ("configs/randers_torus2d.json", 0, 9216),
    ("configs/gaussian_asym1d.json", 8, 772),
    ("perfbench/configs/randers_box2d.json", 1224, 9940),
])
def test_the_odd_even_mode_is_an_exact_kernel_only_on_periodic_grids(config, coupled, stored):
    # a central row skips its own node, so on a periodic grid of even sides D
    # maps the checkerboard to exactly 0 and the Newton Jacobian splits into
    # an even and an odd block; only the one-sided rows of a no-flux grid
    # couple the two.  Projecting checker inputs onto smooth modes keeps this;
    # a compact stencil would change it
    space = load_config(os.path.join(ROOT, config)).build_space()
    ops = operators_for(space)
    f, parity = _checkerboard(space)
    J = ops.linearized_laplacian_matrix(ops.field(f))  # L[:, q]
    cols = np.repeat(ops.linearized_pattern.order, np.diff(J.indptr))  # column j is q[j]
    assert (int(np.sum(parity[J.indices] != parity[cols])), J.nnz) == (coupled, stored)
    assert (float(np.max(np.abs(ops.differential(f)))) == 0.0) == space.domain.periodic


def test_a_bundle_is_shared_while_held_and_goes_with_its_holders():
    # with the cyclic collector off, only reference counts free a space
    gc.disable()
    try:
        sp = build_space(Domain("box", (2.0, 2.0), (12, 12)), oblique_randers(),
                         "(x**2 + y**2)/2")
        ops = operators_for(sp)
        f = ops.field(sp.coords[:, 0] * sp.coords[:, 1])
        assert f.g2.shape == (sp.n_nodes,) and f.kink.any()
        assert effective_K(sp, math.inf).K_eff > 0
        check_gamma2_integral(sp, 1.5 + f.f, math.inf, 1.0)
        assert operators_for(sp) is ops
        space_ref, ops_ref = weakref.ref(sp), weakref.ref(ops)
        del ops  # the record still holds the bundle, so it is still shared
        assert operators_for(sp) is f.ops
        del f  # a space holds no bundle: the last holder's goes with it
        assert ops_ref() is None
        assert operators_for(sp).space is sp  # a new bundle, dropped at once
        del sp
        assert space_ref() is None
    finally:
        gc.enable()

import numpy as np
import pytest

from finslergamma import (AsymNorm1D, DiffOperators, Domain, EuclideanNorm, LegendreError,
                          MinkowskiNorm, RandersNorm, build_space, uniform_smoothness)
from finslergamma.norms import cached_attribute

RANDERS = RandersNorm(np.eye(2), (0.5, 0.0))
# non-diagonal A and an oblique drift, |b|_{A^-1} ~ 0.92
RANDERS_GEN = RandersNorm(np.array([[2.0, 0.7], [0.7, 1.0]]), (0.6, -0.5))
ASYM = AsymNorm1D(2.0, 1.0)
EUCLID2 = EuclideanNorm(np.eye(2))

# closed-form Randers smoothness constant ((1 + e)/(1 - e))^2 at e = 1/2,
# realized by the axis pair v = +e1, w = -e1
RANDERS_SF = 9.0


def test_eval_examples():
    assert EUCLID2.values([[3.0, 4.0]])[0] == pytest.approx(5.0)
    assert ASYM.values([[-3.0]])[0] == pytest.approx(3.0)
    assert RANDERS.values([[1.0, 0.0]])[0] == pytest.approx(1.5)
    assert EUCLID2.values([[0.0, 0.0]])[0] == 0.0


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_positive_homogeneity(c):
    rng = np.random.default_rng(0)
    for norm in (EUCLID2, RANDERS):
        V, A_ = rng.standard_normal((5, 2, 2)).transpose(1, 0, 2)  # rows v, a in turn
        assert norm.values(c * V) == pytest.approx(c * norm.values(V), rel=1e-12)
        assert np.sqrt(norm.dual_sq_values(c * A_)) == pytest.approx(
            c * np.sqrt(norm.dual_sq_values(A_)), rel=1e-9)
        assert np.allclose(norm.legendre_map(c * A_), c * norm.legendre_map(A_),
                           rtol=1e-8, atol=1e-12)
    s = np.array([[-1.7], [0.3]])
    assert ASYM.values(c * s) == pytest.approx(c * ASYM.values(s), rel=1e-14)


def test_dual_examples():
    assert np.sqrt(EUCLID2.dual_sq_values([[3.0, 4.0]]))[0] == pytest.approx(5.0)
    assert np.sqrt(ASYM.dual_sq_values([[1.0], [-3.0]])) == pytest.approx([0.5, 3.0])
    for norm in (EUCLID2, ASYM, RANDERS):
        assert np.all(norm.dual_sq_values(np.zeros((1, norm.dim))) == 0.0)


def test_dual_1d_support_function_oracle():
    # unit ball of the two-slope norm is [-1/beta, 1/alpha]; maximize a*v there
    ends = np.array([-1.0 / ASYM.beta, 1.0 / ASYM.alpha])
    a = np.array([-3.0, -0.4, 0.7, 1.0, 5.0])
    assert np.sqrt(ASYM.dual_sq_values(a[:, None])) == pytest.approx(
        np.maximum(a * ends[0], a * ends[1]))


def test_randers_dual_matches_dense_sampling():
    theta = np.linspace(0, 2 * np.pi, 20001)[:-1]
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    U = U / RANDERS.values(U)[:, None]
    A_ = np.random.default_rng(3).standard_normal((5, 2))
    assert np.sqrt(RANDERS.dual_sq_values(A_)) == pytest.approx(np.max(A_ @ U.T, axis=1),
                                                                rel=1e-7)


def test_legendre_examples():
    assert np.allclose(EUCLID2.legendre_map([[3.0, 4.0]]), [[3.0, 4.0]])
    a = np.array([[1.0], [-3.0]])
    v = ASYM.legendre_map(a)
    assert v[:, 0] == pytest.approx([0.25, -3.0])
    assert ASYM.values(v)[0] == pytest.approx(np.sqrt(ASYM.dual_sq_values(a))[0])
    assert ASYM.values(v)[1] == pytest.approx(3.0)
    assert float(a[1] @ v[1]) == pytest.approx(9.0)
    assert np.all(ASYM.legendre_map([[0.0]]) == 0.0)
    assert np.all(RANDERS.legendre_map([[0.0, 0.0]]) == 0.0)


def test_legendre_identities_sampled():
    rng = np.random.default_rng(1)
    for norm in (EUCLID2, ASYM, RANDERS):
        A_ = rng.standard_normal((8, norm.dim))
        V = norm.legendre_map(A_)
        fstar = np.sqrt(norm.dual_sq_values(A_))
        assert norm.values(V) == pytest.approx(fstar, rel=1e-8)
        assert np.einsum("mi,mi->m", A_, V) == pytest.approx(fstar**2, rel=1e-8)


def test_metric_tensor_examples():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    n = EuclideanNorm(A)
    assert np.allclose(n.metric_tensors([[0.4, -1.0]])[0], A)
    assert ASYM.metric_tensors([[0.7], [-0.2]])[:, 0, 0] == pytest.approx([4.0, 1.0])


def test_metric_tensor_consistency_and_positivity():
    V = np.random.default_rng(2).standard_normal((10, 2))
    G = RANDERS.metric_tensors(V)
    assert np.einsum("mi,mij,mj->m", V, G, V) == pytest.approx(RANDERS.values(V) ** 2,
                                                              rel=1e-8)
    assert np.all(np.linalg.eigvalsh(G) > 0)


def test_uniform_smoothness():
    assert uniform_smoothness(EUCLID2) == 1.0
    assert uniform_smoothness(ASYM) == pytest.approx(4.0)
    sf = uniform_smoothness(RANDERS)
    assert sf > 1.0
    assert sf == pytest.approx(RANDERS_SF, rel=1e-6)


def test_uniform_smoothness_rejects_unknown_norm():
    class Scaled(MinkowskiNorm):
        dim = 2

    with pytest.raises(TypeError):
        uniform_smoothness(Scaled())


def test_reverse():
    rev = ASYM.reverse()
    assert rev == AsymNorm1D(1.0, 2.0)
    assert EUCLID2.reverse() is EUCLID2
    rr = RANDERS.reverse().reverse()
    assert np.allclose(rr.A, RANDERS.A)
    assert np.allclose(rr.b, RANDERS.b)
    V = np.random.default_rng(4).standard_normal((5, 2))
    assert RANDERS.reverse().values(V) == pytest.approx(RANDERS.values(-V))


def test_duality_inequality():
    # a(v) <= F*(a) F(v); the reversed lower bound is NOT asserted
    rng = np.random.default_rng(5)
    for norm in (EUCLID2, ASYM, RANDERS):
        A_, V = rng.standard_normal((30, 2, norm.dim)).transpose(1, 0, 2)  # a, v in turn
        fstar = np.sqrt(norm.dual_sq_values(A_))
        assert np.all(np.einsum("mi,mi->m", A_, V)
                      <= fstar * norm.values(V) * (1 + 1e-9) + 1e-12)


def test_uniform_smoothness_duality():
    # F*(b)^2 <= S_F * g*_a(b, b) with g*_a the inverse-matrix form
    rng = np.random.default_rng(6)
    for norm in (EUCLID2, ASYM, RANDERS):
        sf = uniform_smoothness(norm)
        A_, B = rng.standard_normal((10, 2, norm.dim)).transpose(1, 0, 2)  # a, b in turn
        gstar = norm.dual_norm.metric_tensors(A_)
        assert np.all(norm.dual_sq_values(B)
                      <= sf * np.einsum("mi,mij,mj->m", B, gstar, B) * (1 + 1e-6))


def test_randers_construction_guards():
    with pytest.raises(ValueError):
        RandersNorm(np.eye(2), (0.995, 0.0))
    with pytest.raises(ValueError):
        RandersNorm(np.array([[1.0, 2.0], [2.0, 1.0]]), (0.1, 0.0))  # not SPD
    with pytest.raises(ValueError):
        EuclideanNorm(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        AsymNorm1D(1.0, -2.0)


@pytest.mark.parametrize("make", [
    lambda: RandersNorm(np.array([[np.inf, 0.0], [0.0, 1.0]]), (0.1, 0.0)),
    lambda: RandersNorm(np.eye(2), (np.nan, 0.1)),
    lambda: EuclideanNorm(np.array([[1.0, 0.0], [0.0, np.inf]])),
    lambda: EuclideanNorm(np.array([[np.nan]])),
], ids=["randers-inf-A", "randers-nan-b", "euclidean-inf-A", "euclidean-nan-A"])
def test_non_finite_entries_are_rejected(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_vectorized_paths_match_scalar():
    # the stack forms against test-side closed forms, row by row:
    # sqrt(v'Av) + b.v with F* = sqrt(a'A^-1 a) and L* = A^-1 a at b = 0, and
    # the two-slope norm with its support function
    rng = np.random.default_rng(7)
    V = rng.standard_normal((20, 2))
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    euclid = EuclideanNorm(A)
    Ainv = np.linalg.inv(A)
    for norm in (euclid, RANDERS):
        ref = [np.sqrt(v @ norm.A @ v) + norm.b @ v for v in V]
        assert np.allclose(norm.values(V), ref, rtol=1e-14)
    assert np.allclose(euclid.dual_sq_values(V), [a @ Ainv @ a for a in V], rtol=1e-13)
    assert np.allclose(euclid.legendre_map(V), V @ Ainv, rtol=1e-13)
    s = rng.standard_normal(20)
    slope = np.array([ASYM.alpha if x >= 0 else ASYM.beta for x in s])
    assert np.allclose(ASYM.values(s[:, None]), slope * np.abs(s), rtol=1e-15)
    assert np.allclose(ASYM.dual_sq_values(s[:, None]), (s / slope) ** 2, rtol=1e-15)
    assert np.allclose(ASYM.legendre_map(s[:, None])[:, 0], s / slope**2, rtol=1e-15)


ALL_NORMS = [EUCLID2, EuclideanNorm(np.array([[2.0, 0.3], [0.3, 1.0]])), ASYM,
             RANDERS, RANDERS_GEN]


@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: type(n).__name__)
def test_metric_tensors_times_inverse_is_identity(norm):
    V = np.random.default_rng(12).standard_normal((25, norm.dim))
    G, Ginv = norm.metric_tensors(V), norm.dual_norm.metric_tensors(norm.covectors(V))
    assert G.shape == Ginv.shape == (25, norm.dim, norm.dim)
    assert np.allclose(G @ Ginv, np.eye(norm.dim), atol=1e-12)


def test_euclidean_is_the_randers_norm_with_zero_drift():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    euclid = EuclideanNorm(A)
    assert isinstance(euclid, RandersNorm)
    assert np.array_equal(euclid.b, np.zeros(2))
    assert euclid.reverse() is euclid
    assert uniform_smoothness(euclid) == 1.0
    # the constant-matrix overrides agree with the general Randers forms at b = 0
    general = RandersNorm(A, (0.0, 0.0))
    X = np.random.default_rng(13).standard_normal((30, 2))
    for name in ("values", "dual_sq_values", "legendre_map", "metric_tensors"):
        assert np.allclose(getattr(euclid, name)(X), getattr(general, name)(X),
                           rtol=1e-13, atol=1e-15), name
    assert np.allclose(euclid.dual_norm.metric_tensors(euclid.covectors(X)),
                       general.dual_norm.metric_tensors(general.covectors(X)),
                       rtol=1e-13, atol=1e-15)
    with pytest.raises(TypeError):
        EuclideanNorm(A, (0.1, 0.0))  # the drift is not a parameter


def test_degenerate_input_raises_legendre_error():
    # a drift above 1 cannot be built through the constructor; smuggle one in
    # to confirm the duality guard trips rather than returning garbage
    broken = object.__new__(RandersNorm)
    object.__setattr__(broken, "A", np.eye(2))
    object.__setattr__(broken, "b", np.array([1.05, 0.0]))
    object.__setattr__(broken, "_Ainv", np.eye(2))
    covectors = np.array([[-1.0, 0.2], [0.3, 0.4]])
    with pytest.raises(LegendreError):
        broken.dual_sq_values(covectors)
    with pytest.raises(LegendreError):
        broken.legendre_map(covectors)


# -- closed-form Randers geometry against independent oracles ---------------

def _fd_hessian(f, x, h):
    """Richardson-extrapolated central-difference Hessian at x of a scalar
    function f evaluated across the rows of an (M, n) stack."""
    def central(h):
        n = len(x)
        E = h * np.eye(n)
        # the four corners x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej
        P = np.stack([x + E[:, None] + s * E[None, :] for s in (1, -1)]
                     + [x - E[:, None] + s * E[None, :] for s in (1, -1)])
        pp, pm, mp, mm = f(P.reshape(-1, n)).reshape(4, n, n)
        return (pp - pm - mp + mm) / (4 * h * h)
    return (4.0 * central(h) - central(2.0 * h)) / 3.0


def _indicatrix(norm, n_dirs):
    theta = np.linspace(0, 2 * np.pi, n_dirs + 1)[:-1]
    U = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return U / norm.values(U)[:, None]


def test_randers_general_dual_matches_dense_sampling():
    U = _indicatrix(RANDERS_GEN, 20000)
    rng = np.random.default_rng(8)
    A_ = rng.standard_normal((8, 2))
    sampled = np.max(A_ @ U.T, axis=1)
    fstar = np.sqrt(RANDERS_GEN.dual_sq_values(A_))
    # sampling the indicatrix gives a lower bound; its gap, quadratic in the
    # angular step, reaches ~3e-7 relative on this stretched indicatrix
    assert np.all(sampled <= fstar * (1 + 1e-12))
    assert np.allclose(fstar, sampled, rtol=1e-6)


def test_randers_general_legendre_identities_vectorized():
    rng = np.random.default_rng(9)
    A_ = rng.standard_normal((200, 2)) * rng.uniform(0.01, 100.0, (200, 1))
    V = RANDERS_GEN.legendre_map(A_)
    fstar_sq = RANDERS_GEN.dual_sq_values(A_)
    assert np.allclose(RANDERS_GEN.values(V) ** 2, fstar_sq, rtol=1e-12)
    assert np.allclose(np.einsum("mi,mi->m", A_, V), fstar_sq, rtol=1e-12)


def test_randers_general_metric_matches_fd_hessian():
    V = np.random.default_rng(10).standard_normal((6, 2))
    G, F = RANDERS_GEN.metric_tensors(V), RANDERS_GEN.values(V)
    for v, g, f in zip(V, G, F):
        g_fd = _fd_hessian(lambda X: 0.5 * RANDERS_GEN.values(X) ** 2, v, 1e-3 * f)
        assert np.allclose(g, g_fd, rtol=1e-7, atol=1e-8 * np.abs(g).max())
    assert np.einsum("mi,mij,mj->m", V, G, V) == pytest.approx(F ** 2, rel=1e-12)


def test_randers_general_inverse_metric_is_dual_hessian():
    # g*_a = Hess(F*^2/2)(a) equals inv(g_v) at v = L*(a)
    rng = np.random.default_rng(11)
    A_ = rng.standard_normal((6, 2))
    V = RANDERS_GEN.legendre_map(A_)
    Ginv = RANDERS_GEN.dual_norm.metric_tensors(RANDERS_GEN.covectors(V))
    dual_half_sq = lambda X: 0.5 * RANDERS_GEN.dual_sq_values(X)
    for a, gstar, fstar in zip(A_, Ginv, np.sqrt(RANDERS_GEN.dual_sq_values(A_))):
        H = _fd_hessian(dual_half_sq, a, 1e-3 * fstar)
        assert np.allclose(gstar, H, rtol=1e-7, atol=1e-8 * np.abs(H).max())


@pytest.mark.parametrize("a, b", [(4.0, 0.5), (0.25, -0.3)])
def test_randers_1d_matches_two_slope_norm(a, b):
    randers = RandersNorm([[a]], (b,))
    twoslope = AsymNorm1D(np.sqrt(a) + b, np.sqrt(a) - b)
    X = np.array([[-2.5], [-0.3], [0.7], [4.0]])
    assert np.allclose(randers.values(X), twoslope.values(X), rtol=1e-14)
    assert np.allclose(randers.dual_sq_values(X), twoslope.dual_sq_values(X), rtol=1e-13)
    assert np.allclose(randers.legendre_map(X), twoslope.legendre_map(X), rtol=1e-13)
    assert np.allclose(randers.dual_norm.metric_tensors(randers.covectors(X)),
                       twoslope.dual_norm.metric_tensors(twoslope.covectors(X)), rtol=1e-13)
    assert np.sqrt(randers.dual_sq_values(X)) == pytest.approx(
        np.sqrt(twoslope.dual_sq_values(X)), rel=1e-13)
    assert randers.legendre_map(X) == pytest.approx(twoslope.legendre_map(X), rel=1e-13)
    assert uniform_smoothness(randers) == pytest.approx(uniform_smoothness(twoslope),
                                                        rel=1e-13)


def test_randers_uniform_smoothness_closed_form_bounds_dense_sampling():
    # the closed form is the supremum: dense sampling approaches it from below
    U = _indicatrix(RANDERS_GEN, 2048)
    G = RANDERS_GEN.metric_tensors(U)
    sampled = float(np.max(np.einsum("kij,li,lj->kl", G, U, U)))
    sf = uniform_smoothness(RANDERS_GEN)
    assert sampled <= sf * (1 + 1e-12)
    assert sampled == pytest.approx(sf, rel=1e-4)


# -- duality as a constructor -------------------------------------------------

@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: type(n).__name__)
def test_dual_of_the_dual_is_the_norm(norm):
    V = np.random.default_rng(14).standard_normal((40, norm.dim))
    assert type(norm.dual_norm.dual_norm) is type(norm.dual_norm)
    assert np.allclose(norm.dual_norm.dual_norm.values(V), norm.values(V),
                       rtol=1e-13, atol=0)


@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: type(n).__name__)
def test_dual_norm_data(norm):
    dual = norm.dual_norm
    assert norm.dual_norm is dual  # built once
    if isinstance(norm, AsymNorm1D):
        assert dual == AsymNorm1D(1.0 / norm.alpha, 1.0 / norm.beta)
        return
    Ainv = np.linalg.inv(norm.A)
    z = Ainv @ norm.b
    lam = 1.0 - norm.b @ z
    assert np.allclose(dual.A, (lam * Ainv + np.outer(z, z)) / lam**2, rtol=1e-14)
    assert np.allclose(dual.b, -z / lam, rtol=1e-14, atol=0)
    assert np.allclose(dual._Ainv, np.linalg.inv(dual.A), rtol=1e-12)
    if isinstance(norm, EuclideanNorm):
        assert np.allclose(dual.A, Ainv, rtol=1e-15) and not np.any(dual.b)
    drift = lambda n: np.sqrt(n.b @ np.linalg.inv(n.A) @ n.b)
    assert drift(dual) == pytest.approx(drift(norm), rel=1e-13, abs=1e-15)
    assert uniform_smoothness(dual) == pytest.approx(uniform_smoothness(norm), rel=1e-12)


def test_dual_of_a_norm_just_below_the_drift_cap_is_built():
    # the drift check, run again on the dual, rejected some of these by
    # rounding; lam ~ 0.02 here, so the round trip keeps fewer digits
    rng = np.random.default_rng(16)
    for _ in range(50):
        B = rng.standard_normal((2, 2))
        A = B @ B.T + 0.1 * np.eye(2)
        d = rng.standard_normal(2)
        norm = RandersNorm(A, d / np.sqrt(d @ np.linalg.solve(A, d)) * (0.99 - 1e-15))
        dual = norm.dual_norm
        assert np.sqrt(dual.b @ dual._Ainv @ dual.b) == pytest.approx(0.99, rel=1e-12)
        V = rng.standard_normal((10, 2))
        assert np.allclose(dual.dual_norm.values(V), norm.values(V), rtol=1e-10, atol=0)


@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: type(n).__name__)
def test_legendre_map_of_a_zero_covector_is_zero(norm):
    A_ = np.zeros((3, norm.dim))
    A_[1] = 0.5  # a nonzero row between zero rows
    V = norm.legendre_map(A_)
    assert np.all(V[[0, 2]] == 0.0) and np.all(np.isfinite(V))
    assert np.all(norm.covectors(np.zeros((2, norm.dim))) == 0.0)


@pytest.mark.parametrize("norm", ALL_NORMS, ids=lambda n: type(n).__name__)
def test_field_Ginv_is_the_inverse_metric_at_the_legendre_map(norm):
    resolution = (16,) * norm.dim
    sp = build_space(Domain("interval" if norm.dim == 1 else "box",
                            (2.0,) * norm.dim, resolution), norm, "0")
    f = np.random.default_rng(15).standard_normal(sp.n_nodes)
    f.reshape(resolution)[tuple(slice(3, 9) for _ in resolution)] = 0.4  # flat patch
    field = DiffOperators(sp).field(f)
    assert np.any(field.degenerate) and not np.all(field.degenerate)
    at = np.where(field.degenerate[:, None], np.eye(norm.dim)[0], field.legendre)
    oracle = np.linalg.inv(norm.metric_tensors(at))
    assert np.allclose(field.Ginv, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


def test_cached_attribute_computes_once_into_the_instance_dict():
    calls = []

    class Holder:
        @cached_attribute
        def value(self):
            """The doc."""
            calls.append(self)
            return [len(calls)]

    a, b = Holder(), Holder()
    assert a.value is a.value and a.__dict__["value"] is a.value
    assert b.value == [2] and a.value == [1] and len(calls) == 2
    assert isinstance(Holder.value, cached_attribute) and Holder.value.__doc__ == "The doc."
    assert ASYM.dual_norm is ASYM.dual_norm

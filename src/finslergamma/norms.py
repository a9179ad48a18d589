r"""Minkowski norm algebra: evaluation, duality, Legendre transform, metric tensors.

A Minkowski norm F on R^n is positively 1-homogeneous (F(cv) = c F(v) for
c > 0), positive away from the origin, and strongly convex in the sense that

    g_v = 1/2 * Hess(F^2)(v)

is positive-definite for every v != 0.  F need not be reversible:
F(-v) != F(v) is allowed, and the two non-Euclidean variants below exploit
exactly that freedom.

Three variants are implemented:

* ``EuclideanNorm(A)``     -- F(v) = sqrt(v' A v) for SPD A (reversible),
* ``RandersNorm(A, b)``    -- F(v) = sqrt(v' A v) + b.v with |b|_{A^-1} < 1,
* ``AsymNorm1D(alpha, beta)`` -- F(v) = alpha*v for v >= 0, beta*(-v) for v < 0.

The dual norm is the support function of the unit ball,

    F*(a) = sup { a(v) : F(v) <= 1 },

and the Legendre transform L* sends a covector a to the unique vector v with
F(v) = F*(a) and a(v) = F*(a)^2.  All three variants evaluate the dual, the
Legendre transform and the metric tensor in closed form, vectorized over
(M, dim) stacks; the Randers formulas hold in every dimension.  The tests
check them against dense sampling of the indicatrix and finite-difference
Hessians.

All operations are pure functions of immutable inputs and safe to call from
any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MinkowskiNorm",
    "EuclideanNorm",
    "RandersNorm",
    "AsymNorm1D",
    "LegendreError",
    "uniform_smoothness",
    "unit_sphere_directions",
]

# Strong-convexity guard for Randers construction: |b|_{A^-1} above this is
# rejected rather than risking a numerically marginal Legendre transform.
RANDERS_MAX_DRIFT = 0.99

# Post-hoc tolerance on the Legendre identities F(L*(a)) = F*(a) and
# a(L*(a)) = F*(a)^2, relative.
LEGENDRE_TOL = 1e-10


class LegendreError(RuntimeError):
    """Raised when a norm is not strongly convex: the Legendre identities
    fail post-hoc verification, or a Randers drift |b|_{A^-1} reaches 1."""


def _as_vector(v, dim: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (dim,):
        raise ValueError(f"expected a vector of dimension {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def unit_sphere_directions(dim: int, n_samples: int) -> np.ndarray:
    """Euclidean directions used to parameterize indicatrix sampling.

    1D returns {+1, -1}; 2D returns ``n_samples`` nested angular samples
    (doubling ``n_samples`` keeps all previous angles, so sampled suprema
    are monotone under refinement).
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    raise NotImplementedError("direction sampling is implemented for dim <= 2")


class MinkowskiNorm:
    """Common interface of the concrete norm variants."""

    dim: int

    # -- scalar interface -------------------------------------------------
    def __call__(self, v) -> float:
        raise NotImplementedError

    def dual(self, a) -> float:
        raise NotImplementedError

    def legendre(self, a) -> np.ndarray:
        raise NotImplementedError

    def metric_tensor(self, v) -> np.ndarray:
        raise NotImplementedError

    def reverse(self) -> "MinkowskiNorm":
        """The norm v -> F(-v)."""
        raise NotImplementedError

    # -- vectorized interface over (M, dim) stacks ------------------------
    def values(self, V: np.ndarray) -> np.ndarray:
        V = np.asarray(V, dtype=float)
        return np.array([self(v) for v in V])

    def dual_sq_values(self, A_: np.ndarray) -> np.ndarray:
        """F*(a)^2 per row; the square is the natural energy integrand."""
        A_ = np.asarray(A_, dtype=float)
        return np.array([self.dual(a) ** 2 for a in A_])

    def legendre_map(self, A_: np.ndarray) -> np.ndarray:
        A_ = np.asarray(A_, dtype=float)
        return np.stack([self.legendre(a) for a in A_])

    def inverse_metric_tensors(self, V: np.ndarray) -> np.ndarray:
        """g_v^{-1} per row of V; rows must be nonzero."""
        V = np.asarray(V, dtype=float)
        return np.stack([np.linalg.inv(self.metric_tensor(v)) for v in V])

    def dual_metric_tensor(self, a) -> np.ndarray:
        """g*_a as the inverse-matrix form: inv(g_v) at v = L*(a)."""
        return np.linalg.inv(self.metric_tensor(self.legendre(a)))

    def _verify_legendre(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        fstar = self.dual(a)
        scale = max(fstar * fstar, 1e-300)
        err1 = abs(self(v) - fstar) / max(fstar, 1e-300)
        err2 = abs(float(a @ v) - fstar * fstar) / scale
        if not (err1 <= LEGENDRE_TOL and err2 <= LEGENDRE_TOL):  # catches NaN too
            raise LegendreError(
                f"Legendre identities violated (rel. errors {err1:.2e}, {err2:.2e}); "
                "input norm may not be strongly convex"
            )
        return v


@dataclass(frozen=True, eq=False)
class EuclideanNorm(MinkowskiNorm):
    """F(v) = sqrt(v' A v) with A symmetric positive-definite."""

    A: np.ndarray
    _Ainv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("A must be positive-definite") from None
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "_Ainv", np.linalg.inv(A))

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, v) -> float:
        v = _as_vector(v, self.dim)
        return float(np.sqrt(v @ self.A @ v))

    def dual(self, a) -> float:
        a = _as_vector(a, self.dim)
        return float(np.sqrt(a @ self._Ainv @ a))

    def legendre(self, a) -> np.ndarray:
        a = _as_vector(a, self.dim)
        return self._Ainv @ a

    def metric_tensor(self, v) -> np.ndarray:
        v = _as_vector(v, self.dim)
        if not np.any(v):
            raise ValueError("metric tensor is undefined at v = 0")
        return self.A.copy()

    def reverse(self) -> "EuclideanNorm":
        return self

    def values(self, V):
        V = np.asarray(V, dtype=float)
        return np.sqrt(np.einsum("mi,ij,mj->m", V, self.A, V))

    def dual_sq_values(self, A_):
        A_ = np.asarray(A_, dtype=float)
        return np.einsum("mi,ij,mj->m", A_, self._Ainv, A_)

    def legendre_map(self, A_):
        return np.asarray(A_, dtype=float) @ self._Ainv.T

    def inverse_metric_tensors(self, V):
        V = np.asarray(V, dtype=float)
        return np.broadcast_to(self._Ainv, (V.shape[0],) + self._Ainv.shape).copy()


@dataclass(frozen=True)
class AsymNorm1D(MinkowskiNorm):
    """One-dimensional two-slope norm: F(v) = alpha*v (v >= 0), beta*(-v) (v < 0).

    The minimal genuinely non-reversible example; every operation has a
    closed form, which makes it the workhorse oracle norm of the test suite.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")

    @property
    def dim(self) -> int:
        return 1

    def __call__(self, v) -> float:
        v = float(_as_vector(v, 1)[0])
        return self.alpha * v if v >= 0 else self.beta * (-v)

    def dual(self, a) -> float:
        # Support function of the unit ball [-1/beta, 1/alpha].
        s = float(_as_vector(a, 1)[0])
        return s / self.alpha if s >= 0 else -s / self.beta

    def legendre(self, a) -> np.ndarray:
        s = float(_as_vector(a, 1)[0])
        v = s / self.alpha**2 if s >= 0 else s / self.beta**2
        return np.array([v])

    def metric_tensor(self, v) -> np.ndarray:
        s = float(_as_vector(v, 1)[0])
        if s == 0.0:
            raise ValueError("metric tensor is undefined at v = 0")
        g = self.alpha**2 if s > 0 else self.beta**2
        return np.array([[g]])

    def reverse(self) -> "AsymNorm1D":
        return AsymNorm1D(self.beta, self.alpha)

    def _branch(self, s: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(s) >= 0, self.alpha, self.beta)

    def values(self, V):
        s = np.asarray(V, dtype=float)[:, 0]
        return self._branch(s) * np.abs(s)

    def dual_sq_values(self, A_):
        s = np.asarray(A_, dtype=float)[:, 0]
        return (s / self._branch(s)) ** 2

    def legendre_map(self, A_):
        s = np.asarray(A_, dtype=float)[:, 0]
        return (s / self._branch(s) ** 2)[:, None]

    def inverse_metric_tensors(self, V):
        s = np.asarray(V, dtype=float)[:, 0]
        # branch at 0 irrelevant: callers route exact zeros to a fallback
        return (1.0 / self._branch(s) ** 2)[:, None, None]


@dataclass(frozen=True, eq=False)
class RandersNorm(MinkowskiNorm):
    """F(v) = sqrt(v' A v) + b.v, non-reversible for b != 0.

    Strong convexity requires |b|_{A^-1} < 1; construction rejects anything
    above RANDERS_MAX_DRIFT.  Every operation has a closed form in any
    dimension (Bao-Chern-Shen 2000, Shen 2001).  With lam = 1 - |b|^2_{A^-1},
    z = A^-1 a and beta* = b.z, the dual is again a Randers norm,

        F*(a) = (s - beta*) / lam,      s = sqrt(lam a.z + beta*^2),

    and the Legendre transform L*(a) = F*(a) grad F*(a) simplifies to
    (F*/s)(z - F* A^-1 b).  With alpha = sqrt(v' A v) and l = A v/alpha + b,

        g_v = (F/alpha) (A - A v v' A / alpha^2) + l l'.
    """

    A: np.ndarray
    b: np.ndarray
    _Ainv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if b.shape != (A.shape[0],):
            raise ValueError("b must be a vector matching A")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("A must be positive-definite") from None
        Ainv = np.linalg.inv(A)
        drift = float(np.sqrt(b @ Ainv @ b))
        if drift >= RANDERS_MAX_DRIFT:
            raise ValueError(
                f"Randers drift |b|_(A^-1) = {drift:.4f} >= {RANDERS_MAX_DRIFT}; "
                "norm too close to losing strong convexity"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_Ainv", Ainv)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, v) -> float:
        v = _as_vector(v, self.dim)
        return float(np.sqrt(v @ self.A @ v) + self.b @ v)

    def values(self, V):
        V = np.asarray(V, dtype=float)
        return np.sqrt(np.einsum("mi,ij,mj->m", V, self.A, V)) + V @ self.b

    # -- closed-form duality --------------------------------------------------

    def _duals(self, A_: np.ndarray):
        """(z, s, F*) per row of A_; lam <= 0 means no strongly convex dual."""
        lam = 1.0 - float(self.b @ self._Ainv @ self.b)
        if not lam > 0:
            raise LegendreError(f"Randers drift |b|_(A^-1) >= 1 (lam = {lam:.3g}); "
                                "input norm is not strongly convex")
        A_ = np.asarray(A_, dtype=float)
        Z = A_ @ self._Ainv
        beta = Z @ self.b
        s = np.sqrt(lam * np.einsum("mi,mi->m", A_, Z) + beta * beta)
        return Z, s, (s - beta) / lam

    def dual(self, a) -> float:
        a = _as_vector(a, self.dim)
        return float(self._duals(a[None, :])[2][0])

    def legendre(self, a) -> np.ndarray:
        a = _as_vector(a, self.dim)
        if not np.any(a):
            return np.zeros(self.dim)
        return self._verify_legendre(a, self.legendre_map(a[None, :])[0])

    def dual_sq_values(self, A_):
        return self._duals(A_)[2] ** 2

    def legendre_map(self, A_):
        Z, s, fstar = self._duals(A_)
        ratio = np.divide(fstar, s, out=np.zeros_like(s), where=s > 0)
        return ratio[:, None] * (Z - fstar[:, None] * (self._Ainv @ self.b))

    # -- metric tensor ----------------------------------------------------------

    def metric_tensors(self, V: np.ndarray) -> np.ndarray:
        """Metric tensors g_v across rows of V (all rows nonzero)."""
        V = np.asarray(V, dtype=float)
        AV = V @ self.A
        alpha = np.sqrt(np.einsum("mi,mi->m", V, AV))
        U = AV / alpha[:, None]
        ell = U + self.b
        ratio = 1.0 + (V @ self.b) / alpha
        return (ratio[:, None, None] * (self.A - U[:, :, None] * U[:, None, :])
                + ell[:, :, None] * ell[:, None, :])

    def metric_tensor(self, v) -> np.ndarray:
        v = _as_vector(v, self.dim)
        if not np.any(v):
            raise ValueError("metric tensor is undefined at v = 0")
        return self.metric_tensors(v[None, :])[0]

    def inverse_metric_tensors(self, V):
        return np.linalg.inv(self.metric_tensors(V))

    def reverse(self) -> "RandersNorm":
        return RandersNorm(self.A, -self.b)


def uniform_smoothness(norm: MinkowskiNorm, n_samples: int = 256) -> float:
    """Uniform smoothness constant: sup of g_v(w,w)/F(w)^2 over unit v, w.

    Exactly 1.0 for Euclidean norms (the inner-product case), max(a/b, b/a)^2
    for the 1D two-slope norm and ((1 + e)/(1 - e))^2 with e = |b|_{A^-1}
    for Randers norms, attained at v = -w along the A^-1 direction of b.
    Any other norm gets a sampled supremum over nested direction grids: a
    lower bound, monotone nondecreasing under sample refinement.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if isinstance(norm, EuclideanNorm):
        return 1.0
    if isinstance(norm, AsymNorm1D):
        r = norm.alpha / norm.beta
        return float(max(r, 1.0 / r) ** 2)
    if isinstance(norm, RandersNorm):
        e = float(np.sqrt(norm.b @ norm._Ainv @ norm.b))
        return ((1.0 + e) / (1.0 - e)) ** 2
    dirs = unit_sphere_directions(norm.dim, n_samples)
    U = dirs / norm.values(dirs)[:, None]
    G = np.stack([norm.metric_tensor(u) for u in U])
    quad = np.einsum("kij,li,lj->kl", G, U, U)
    f2 = norm.values(U) ** 2  # == 1 up to rounding; keep for safety
    return float(np.max(quad / f2[None, :]))

r"""Minkowski norm algebra: evaluation, duality, Legendre transform, metric tensors.

A Minkowski norm F on R^n is positively 1-homogeneous (F(cv) = c F(v) for
c > 0), positive away from the origin, and strongly convex in the sense that

    g_v = 1/2 * Hess(F^2)(v)

is positive-definite for every v != 0.  F need not be reversible:
F(-v) != F(v) is allowed, and the two non-Euclidean variants below exploit
exactly that freedom.

Three variants are implemented:

* ``RandersNorm(A, b)``    -- F(v) = sqrt(v' A v) + b.v with |b|_{A^-1} < 1,
* ``EuclideanNorm(A)``     -- the Randers norm with b = 0 (reversible),
* ``AsymNorm1D(alpha, beta)`` -- F(v) = alpha*v for v >= 0, beta*(-v) for v < 0.

The dual norm is the support function of the unit ball,

    F*(a) = sup { a(v) : F(v) <= 1 },

and each variant's dual is a norm of the same family, built once as
``dual_norm``: AsymNorm1D(1/alpha, 1/beta), and Randers(A~, b~) for a Randers
norm (Euclidean(A^-1) at b = 0).  Each variant states F, g_v and the
covector map v -> g_v v = F(v) grad F(v) as closed forms over (M, dim)
stacks.  F*^2 and the Legendre transform L*, the dual's covector map with
F(L*a) = F*(a) and a(L*a) = F*(a)^2, are derived once; the inverse metric at v
is the dual norm's metric at the covector of v, which ``Field.Ginv`` reads.  No
form samples, inverts or verifies per row; tests check samples and FD Hessians.

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
]

# Strong-convexity guard for Randers construction: |b|_{A^-1} above this is
# rejected rather than risking a numerically marginal Legendre transform.
RANDERS_MAX_DRIFT = 0.99


class cached_attribute:
    """``functools.cached_property`` as of Python 3.12: the first read stores
    the value in the instance ``__dict__``, which later reads find first.
    Unlike 3.11's, it takes no lock; two threads racing on a first read may
    both compute the value."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class LegendreError(RuntimeError):
    """Raised when a Randers norm is not strongly convex: building its dual
    finds the drift |b|_{A^-1} at or above 1."""


class MinkowskiNorm:
    """Common interface of the concrete norm variants.  Each variant states
    ``values``, ``covectors``, ``metric_tensors`` over (M, dim) stacks, its
    ``dual_norm`` and ``reverse`` (the norm v -> F(-v)); the two dual
    operations are derived here once.  Every form takes and returns stacks:
    one vector v is the stack v[None, :]."""

    dim: int

    # -- dual operations, through the dual norm -------------------------------
    def dual_sq_values(self, A_):
        """F*(a)^2 across rows of A_."""
        return self.dual_norm.values(A_) ** 2

    def legendre_map(self, A_):
        """L*(a) = F*(a) grad F*(a) across rows of A_; 0 at a = 0."""
        return self.dual_norm.covectors(A_)


@dataclass(frozen=True)
class AsymNorm1D(MinkowskiNorm):
    """One-dimensional two-slope norm: F(v) = alpha*v (v >= 0), beta*(-v) (v < 0).

    The minimal genuinely non-reversible example; every operation has a
    closed form, which makes it the workhorse oracle norm of the test suite.
    Its dual is the two-slope norm AsymNorm1D(1/alpha, 1/beta).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            x = getattr(self, name)
            if not 0 < x < np.inf:
                raise ValueError(f"{name} must be finite and positive")
            if not 1.0 / float(x) < np.inf:  # a subnormal slope: the dual's overflows
                raise ValueError(f"{name} = {x!r} has no finite reciprocal")

    dim = 1

    def reverse(self) -> "AsymNorm1D":
        return AsymNorm1D(self.beta, self.alpha)

    @cached_attribute
    def dual_norm(self) -> "AsymNorm1D":
        return AsymNorm1D(1.0 / self.alpha, 1.0 / self.beta)

    def values(self, V):
        s = np.asarray(V, dtype=float)[:, 0]
        return np.maximum(self.alpha * s, -self.beta * s)

    def covectors(self, V):
        s = np.asarray(V, dtype=float)[:, 0]
        return (np.where(s >= 0, self.alpha ** 2, self.beta ** 2) * s)[:, None]

    def metric_tensors(self, V):
        s = np.asarray(V, dtype=float)[:, 0]
        return np.where(s >= 0, self.alpha ** 2, self.beta ** 2)[:, None, None]


@dataclass(frozen=True, eq=False)
class RandersNorm(MinkowskiNorm):
    """F(v) = sqrt(v' A v) + b.v, non-reversible for b != 0.

    Strong convexity requires |b|_{A^-1} < 1; construction rejects anything
    above RANDERS_MAX_DRIFT.  Every operation has a closed form in any
    dimension (Bao-Chern-Shen 2000, Shen 2001).  With alpha = sqrt(v' A v)
    and l = A v/alpha + b = grad F(v), the covector of v is F(v) l and

        g_v = (F/alpha) (A - A v v' A / alpha^2) + l l'.

    The dual is again a Randers norm with the same drift |b~|_{A~^-1} =
    |b|_{A^-1} (Shen 2001; Bao-Robles-Shen 2004).  With z = A^-1 b and
    lam = 1 - b.z it is built from the closed forms

        A~ = (lam A^-1 + z z') / lam^2,   b~ = -z / lam,   A~^-1 = lam (A - b b'),

    and not validated again, which rounding near RANDERS_MAX_DRIFT could fail.
    """

    A: np.ndarray
    b: np.ndarray
    _Ainv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        # only the Euclidean subclass leaves b unset; A is known square here
        b = (np.zeros(A.shape[0]) if self.b is None
             else np.atleast_1d(np.asarray(self.b, dtype=float)))
        if b.shape != (A.shape[0],):
            raise ValueError("b must be a vector matching A")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must be finite")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("A must be positive-definite") from None
        Ainv = np.linalg.inv(A)
        if not np.isfinite(Ainv).all():  # a subnormal eigenvalue passes cholesky
            raise ValueError("A must have a finite inverse")
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf reads NaN
            drift = float(np.sqrt(b @ Ainv @ b))
        if not drift < RANDERS_MAX_DRIFT:  # NaN fails too
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

    @cached_attribute
    def dual_norm(self) -> "RandersNorm":
        z = self._Ainv @ self.b
        lam = 1.0 - float(self.b @ z)
        if not lam > 0:
            raise LegendreError(f"Randers drift |b|_(A^-1) >= 1 (lam = {lam:.3g}); "
                                "input norm is not strongly convex")
        dual = object.__new__(RandersNorm)
        dual.__dict__.update(A=(lam * self._Ainv + np.outer(z, z)) / lam ** 2, b=-z / lam,
                             _Ainv=lam * (self.A - np.outer(self.b, self.b)))
        return dual

    # perfbench/test_perfbench.py reads this name from the class dict
    dual_sq_values = MinkowskiNorm.dual_sq_values

    def values(self, V):
        V = np.asarray(V, dtype=float)
        return np.sqrt(np.einsum("mi,mi->m", V, V @ self.A)) + V @ self.b

    def covectors(self, V):
        V = np.asarray(V, dtype=float)
        AV = V @ self.A
        alpha = np.sqrt(np.einsum("mi,mi->m", V, AV))
        F = alpha + V @ self.b
        ratio = np.divide(F, alpha, out=np.zeros_like(alpha), where=alpha > 0)
        return ratio[:, None] * AV + F[:, None] * self.b

    def metric_tensors(self, V):
        """Metric tensors g_v across rows of V (all rows nonzero)."""
        V = np.asarray(V, dtype=float)
        AV = V @ self.A
        alpha = np.sqrt(np.einsum("mi,mi->m", V, AV))
        U = AV / alpha[:, None]
        ell = U + self.b
        ratio = 1.0 + (V @ self.b) / alpha
        return (ratio[:, None, None] * (self.A - U[:, :, None] * U[:, None, :])
                + ell[:, :, None] * ell[:, None, :])

    def reverse(self) -> "RandersNorm":
        return RandersNorm(self.A, -self.b)


@dataclass(frozen=True, eq=False)
class EuclideanNorm(RandersNorm):
    """F(v) = sqrt(v' A v) with A symmetric positive-definite: the Randers
    norm with b = 0, whose dual is the Randers form of Euclidean(A^-1)."""

    b: np.ndarray = field(init=False, default=None, repr=False)

    def reverse(self) -> "EuclideanNorm":
        return self


def uniform_smoothness(norm: MinkowskiNorm) -> float:
    """Uniform smoothness constant: sup of g_v(w,w)/F(w)^2 over unit v, w.

    max(a/b, b/a)^2 for the 1D two-slope norm and ((1 + e)/(1 - e))^2 with
    e = |b|_{A^-1} for Randers norms, attained at v = -w along the A^-1
    direction of b; exactly 1.0 at b = 0 (Euclidean, the inner-product case).
    """
    if isinstance(norm, AsymNorm1D):
        r = norm.alpha / norm.beta
        return float(max(r, 1.0 / r) ** 2)
    if isinstance(norm, RandersNorm):
        e = float(np.sqrt(norm.b @ norm._Ainv @ norm.b))
        return ((1.0 + e) / (1.0 - e)) ** 2
    raise TypeError(f"no closed-form smoothness constant for {type(norm).__name__}")

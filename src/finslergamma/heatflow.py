"""Nonlinear heat flow as the implicit gradient flow of the energy in L2(m).

One time step from u solves the minimizing-movement problem

    v  =  argmin  E(v) + ||v - u||^2_{L2(m)} / (2 tau),

whose optimality system v - u = tau * Lap(v) is solved by a damped Newton
iteration, refreshing the linearized Laplacian at the current iterate.
``evolve`` starts the iteration of each step at the quadratic extrapolation
3 u_k - 3 u_{k-1} + u_{k-2} of the last three states (2 u_1 - u_0 at the
second step, u_0 at the first), the standard predictor of an implicit step;
the stop is the same residual test from any start, so a start that already
meets it takes no Newton iteration and no solve.  The Newton Jacobian
I - tau L is filled in place on the operator bundle's fixed CSC
pattern (``DiffOperators.linearized_pattern``), built once per bundle, by
one ``np.bincount`` per term of the linearized Laplacian, and solved by one
``spla.spsolve`` per Newton iteration.  The pattern keeps its columns in
SuperLU's COLAMD order q, so the one matrix per iteration is J[:, q], handed
to the solve as it is with ``permc_spec="NATURAL"``: bit for bit the default
solve, without ordering the same structure again.  The order is read off
the pattern alone, so J is solved as filled: an exact zero in it changes no
bit.  ``spla`` (scipy.sparse.linalg) is bound on its first read, so only a
command that takes a Newton step loads it and pins glibc's heap.  The
scheme is unconditionally stable and decreases the energy at every step; the
exact minimizer conserves mass because the discrete Laplacian integrates to
zero, so the solver projects out the (residual-sized) mean of its inner
iteration error to keep mass constant to rounding over long runs.

``evolve`` records the energy and ``space``'s variance, entropy and Fisher
information (the checkers' functionals), reading ``FlowParams.tol`` relative
to osc(u0) and never stopping below the rounding level of max|u0|;
``decay_rates`` fits exponential rates on the tail half of a series;
``check_dEdt_identity`` verifies the energy-dissipation identity

    d/dt [ F^2(grad u) ] = 2 D[Lap u](grad u)

against recorded flow pairs.  For non-smooth norms the nodewise identity is
measured away from gradient zeros (where the Legendre map kinks and a few
nodes carry O(1) stencil artifacts); the unmasked residual is reported
separately.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

# gradient_kink_mask is re-exported: perfbench/tracer.py wraps the name here
from .calculus import DiffOperators, gradient_kink_mask  # noqa: F401
from .space import entropy_of_density, fisher_information, integrate, variance

__all__ = ["FlowParams", "FlowState", "FlowSolverError", "DissipationReport",
           "step", "evolve", "observables", "decay_rates", "check_dEdt_identity",
           "RATE_SENTINEL"]

#: reported decay rate for observables that are identically ~0 (nothing to fit)
RATE_SENTINEL = math.inf

MIN_RATE_SAMPLES = 10  # fewest recorded samples that decay_rates fits


def __getattr__(name: str):
    """Bind ``spla`` (scipy.sparse.linalg) on its first read: only the Newton
    solve needs it.  ``step`` reads it from the module on every solve, so a
    wrapper set on ``heatflow.spla`` sees each call.  Each solve mallocs and
    frees SuperLU's workspace, which glibc may trim off its heap top and fault
    back in at the next solve (30% of a 1D flow, in some processes only); so
    malloc is fixed where glibc's dynamic thresholds end, 32 MB and 64 MB."""
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import ctypes
    import scipy.sparse.linalg

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    globals()["spla"] = scipy.sparse.linalg
    return scipy.sparse.linalg


class FlowSolverError(RuntimeError):
    """Inner Newton solver failed to reach tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (final residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class FlowParams:
    tau: float
    t_end: float
    tol: float = 1e-10  # Newton residual stop, relative to osc(u0): see evolve
    stride: int = 1

    def __post_init__(self):
        for name in ("tau", "t_end", "tol"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class FlowState:
    t: float
    u: np.ndarray = field(repr=False)
    energy: float
    variance: float
    entropy: float
    fisher: float


def _l2m_norm(space, r: np.ndarray) -> float:
    return float(np.sqrt(integrate(space, r * r)))


def step(ops: DiffOperators, u: np.ndarray, tau: float,
         tol: float = 1e-10, max_iter: int = 50,
         start: Optional[np.ndarray] = None) -> np.ndarray:
    """One implicit (minimizing-movement) step of size tau from u.  Newton
    starts at ``start`` (u if None) and stops once the residual is <= tol,
    so a start that already meets tol takes no Newton iteration."""
    if not 0 < tau < math.inf:
        raise ValueError("tau must be finite and positive")
    space = ops.space
    u = np.asarray(u, dtype=float)
    mass0 = integrate(space, u)
    v = ops.field(u if start is None else np.asarray(start, dtype=float))
    res = v.f - u - tau * ops.laplacian(v)
    rnorm = _l2m_norm(space, res)
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        # the accepted iterate's record already holds the Legendre map
        J = ops.linearized_laplacian_matrix(v)  # L[:, q]: fresh data, shared pattern
        pattern = ops.linearized_pattern
        J.data *= -tau
        J.data[pattern.diagonal] += 1.0  # J = (I - tau L)[:, q]
        dv = np.empty_like(res)
        dv[pattern.order] = sys.modules[__name__].spla.spsolve(J, -res, permc_spec="NATURAL")
        s = 1.0
        while True:
            trial = ops.field(v.f + s * dv)
            tres = trial.f - u - tau * ops.laplacian(trial)
            tnorm = _l2m_norm(space, tres)
            if tnorm <= (1.0 - 0.25 * s) * rnorm or s < 1.0 / 64:
                v, res, rnorm = trial, tres, tnorm
                break
            s *= 0.5
    if rnorm > tol:
        raise FlowSolverError("implicit step did not converge", rnorm)
    return v.f + (mass0 - integrate(space, v.f))


def observables(ops: DiffOperators, t: float, u: np.ndarray) -> FlowState:
    """Energy, variance, entropy m Ent(u/m) (m = int u dm) and Fisher information
    of u; the entropy and the Fisher information are NaN unless u > 0."""
    space = ops.space
    u = np.asarray(u, dtype=float)
    f2 = ops.field(u).dual_sq
    entropy = fisher = math.nan
    if np.min(u) > 0:
        mass = integrate(space, u)
        entropy = mass * entropy_of_density(space, u / mass)
        fisher = fisher_information(space, u, f2)
    return FlowState(t=t, u=u.copy(), energy=0.5 * integrate(space, f2),
                     variance=variance(space, u), entropy=entropy, fisher=fisher)


def evolve(ops: DiffOperators, u0: np.ndarray, params: FlowParams) -> List[FlowState]:
    """Run the flow to t_end, recording observables every ``stride`` steps; the
    Newton stop tol * osc(u0) (max|u0| if constant) scales with u0, ignores + c,
    and never falls below 16 eps max|u0|, the rounding level of the residual.
    Each step's Newton iteration starts at the quadratic extrapolation of the
    last three states, 3 u_k - 3 u_{k-1} + u_{k-2} (linear at the second step,
    u0 at the first)."""
    u0 = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial datum has non-finite values")
    top = float(np.max(np.abs(u0)))
    tol = max(params.tol * float(np.ptp(u0) or top), 16 * np.finfo(float).eps * top)
    n_steps = int(round(params.t_end / params.tau))
    states = [observables(ops, 0.0, u0)]
    u, u1, u2 = u0.copy(), None, None  # u1, u2: the two states before u
    for k in range(1, n_steps + 1):
        if u2 is not None:
            start = 3.0 * (u - u1) + u2
        elif u1 is not None:
            start = 2.0 * u - u1
        else:
            start = None
        try:
            u, u1, u2 = step(ops, u, params.tau, tol=tol, start=start), u, u1
        except FlowSolverError as exc:
            raise FlowSolverError(f"step {k} of {n_steps} (t = {k * params.tau:g}) "
                                  "did not converge", exc.residual) from exc
        if k % params.stride == 0 or k == n_steps:
            states.append(observables(ops, k * params.tau, u))
    return states


def decay_rates(states: List[FlowState]) -> dict:
    """Least-squares exponential rates of variance and entropy on the tail
    half of the series; RATE_SENTINEL where the tail is <= 0 or at rounding
    level (nothing to fit), and NaN where it holds a non-finite value (no
    rate is known).  Rounding level is 1e-15 max|u0| for the entropy and its
    square for the variance, so no rescaling of u0 moves a verdict."""
    if len(states) < MIN_RATE_SAMPLES:
        raise ValueError(f"need at least {MIN_RATE_SAMPLES} recorded samples to fit rates")
    t = np.array([s.t for s in states])
    level = 1e-15 * float(np.max(np.abs(states[0].u)))
    out = {}
    for name, floor in (("variance", level * level), ("entropy", level)):
        y = np.array([getattr(s, name) for s in states])
        tail = slice(len(t) // 2, None)
        yt = y[tail]
        if not np.all(np.isfinite(yt)):
            out[f"{name}_rate"] = math.nan
        elif np.any(yt <= 0) or np.max(yt) < floor:
            out[f"{name}_rate"] = RATE_SENTINEL
        else:
            out[f"{name}_rate"] = float(-np.polyfit(t[tail], np.log(yt), 1)[0])
    return out


@dataclass(frozen=True)
class DissipationReport:
    """Nodewise energy-dissipation residual along a recorded flow."""

    residual: float            # masked: interior, away from gradient zeros
    residual_unmasked: float
    excluded_nodes: int        # size of the gradient-zero band (max over pairs)


def check_dEdt_identity(ops: DiffOperators, states: List[FlowState]) -> DissipationReport:
    """Compare the time difference of F^2(grad u) against 2 D[Lap u](grad u).

    The right-hand side is evaluated at the newer state of each recorded
    pair (the state whose Laplacian the implicit step equates to the
    difference quotient).  Residual -> 0 as tau, h -> 0.  A pair need not
    come from ``evolve``: any (u - tau Lap u, u) at times (t, t + tau) is an
    implicit step solved backwards, exact to rounding and with no Newton
    solve; ``fg identities run`` builds its pair so.
    """
    if len(states) < 2:
        raise ValueError("need at least two recorded states")
    interior = ops.interior_nodes("check_dEdt_identity")
    worst, worst_full, excluded = 0.0, 0.0, 0
    fields = [ops.field(s.u) for s in states]
    for older, newer, f_old, f_new in zip(states, states[1:], fields, fields[1:]):
        dt = newer.t - older.t
        if dt <= 0:
            raise ValueError("states must be strictly increasing in time")
        lhs = (f_new.dual_sq - f_old.dual_sq) / dt
        rhs = 2.0 * f_new.dlap_grad
        # the dust term keeps stationary flows (both sides ~ rounding) at
        # residual ~ 0 instead of dividing dust by dust
        scale = max(float(np.max(np.abs(rhs[interior]))),
                    1e-14 * (1.0 + float(np.max(np.abs(lhs[interior])))))
        diff = np.abs(lhs - rhs)
        worst = max(worst, float(np.max(diff[f_new.pointwise])) / scale)
        worst_full = max(worst_full, float(np.max(diff[interior])) / scale)
        excluded = max(excluded, int(np.sum(interior & ~f_new.kink)))
    return DissipationReport(residual=worst, residual_unmasked=worst_full,
                             excluded_nodes=excluded)

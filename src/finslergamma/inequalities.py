r"""Checkers and constant estimators for the functional inequalities.

Every checker evaluates one inequality instance on a given space with the
curvature constant K supplied by the caller (normally
``curvature.effective_K`` on the same computational domain) and returns a
``CheckReport``.  The pass rule is fixed:

    margin = rhs - lhs  >=  -(tol_rel * |rhs| + tol_abs),

with tol_rel = ``TOL_SWEEP`` = 2e-2 and tol_abs = 0, except that the pointwise
Bochner floor, whose reference side is zero, has tol_rel = 0 and tol_abs =
``POINTWISE_TOL_ABS`` = 2e-2.

The dimension parameter N ranges over (-inf, 0) and [n, inf] (n the grid
dimension); the coefficient (N-1)/(K N) is read as 1/K at N = inf.  Each
checker's N range and K sign are its row of one table, ``_MATRIX``: the
checker rejects N and K outside it, and the regression matrix runs it there.
No checker calls another: the sharp Sobolev family reads p = 2 as the limit
of its own quotient, (1/2)||f||_2^2 Ent_m(f^2/||f||_2^2) (Bakry-Gentil-Ledoux,
2014), under the rhs of every other p.

Every checker that bounds by the gradient energy reads it as
int F^2(grad f) dm = ``integrate(space, rec.dual_sq)`` on the record ``rec``
of its function (``calculus.Field``).  Checkers of a test function f take f
as an array or as its record; those of a density or measure take an array,
and build any record they read for that call alone.

``make_test_bank`` draws the reproducible function bank quantifying "for all
f" in the sweeps, and ``run_checker_matrix`` drives the (checker x N x bank)
regression matrix with deterministic report ordering, on one record per bank
member shared by every N and checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .calculus import Field, operators_for
from .curvature import admissible_N, effective_K
from .heatflow import FlowSolverError, step
from .space import (WeightedSpace, entropy_of_density, fisher_information, integrate,
                    variance)
from .transport import transport_cost_sq

__all__ = [
    "CheckReport", "make_test_bank",
    "lichnerowicz_coeff",
    "check_integrated_bochner", "check_bochner_pointwise",
    "check_poincare", "estimate_poincare_constant",
    "check_logsobolev", "check_gamma2_integral", "check_talagrand",
    "check_entropy_energy", "check_nash", "check_nonsharp_sobolev",
    "check_sobolev", "check_sobolev_inf",
    "SobolevExponents", "sobolev_exponent_table",
    "ABParameters", "ab_parameter_solver", "feasibility_boundary",
    "run_checker_matrix", "runs_at", "CHECKER_IDS",
]

TOL_SWEEP = 2e-2
POINTWISE_TOL_ABS = 2e-2


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality instance."""

    checker: str
    N: float
    K: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tol_rel: float
    tol_abs: float = 0.0
    metadata: dict = field(default_factory=dict)


def _report(checker: str, N: float, K: float, lhs: float, rhs: float,
            **metadata) -> CheckReport:
    margin = rhs - lhs
    tol_rel, tol_abs = ((0.0, POINTWISE_TOL_ABS) if checker == "bochner_pointwise"
                        else (TOL_SWEEP, 0.0))
    # the 1e-13 term keeps exact-equality cases (rhs = 0) from failing on
    # floating-point dust
    allowance = tol_rel * abs(rhs) + tol_abs + 1e-13 * max(1.0, abs(lhs), abs(rhs))
    passed = bool(margin >= -allowance)
    return CheckReport(checker=checker, N=N, K=K, lhs=lhs, rhs=rhs,
                       margin=margin, passed=passed, tol_rel=tol_rel,
                       tol_abs=tol_abs, metadata=metadata)


def lichnerowicz_coeff(N: float, K: float) -> float:
    """(N - 1)/(K N), read as 1/K at N = infinity; requires K > 0."""
    if K <= 0:
        raise ValueError(f"checker needs a positive curvature constant, got K = {K}")
    if math.isinf(N):
        return 1.0 / K
    return (N - 1.0) / (K * N)


def _admit(checker: str, N: float, K: float, dim: int) -> None:
    """Reject N inadmissible on the space, and N and K where the matrix would
    not run the checker: outside its ``_MATRIX`` row."""
    if not (admissible_N(N, dim) and runs_at(checker, N, K)):
        raise ValueError(f"{checker}: N = {N}, K = {K} is outside its row (N range "
                         f"{_MATRIX[checker][0]!r} admissible in {dim}D, K > 0 needed: "
                         f"{_MATRIX[checker][1]})")


def _sobolev_p_max(N: float) -> float:
    """2(N+1)/N, the largest proved sharp Sobolev exponent; 2 at N = inf."""
    return 2.0 if math.isinf(N) else 2.0 * (N + 1.0) / N


# ----------------------------------------------------------------------
# shared functionals

def _lp_norm(space: WeightedSpace, f: np.ndarray, p: float) -> float:
    return float(integrate(space, np.abs(f) ** p) ** (1.0 / p))


# ----------------------------------------------------------------------
# Bochner-type checks

def check_integrated_bochner(space: WeightedSpace, f: np.ndarray | Field, N: float,
                             K: float) -> CheckReport:
    """Integrated Bochner inequality, rearranged through the exact discrete
    identity int D[Lap f](grad f) dm = -int (Lap f)^2 dm:

        K int F^2(grad f) dm + (1/N) int (Lap f)^2 dm  <=  int (Lap f)^2 dm.

    When K > 0 the metadata carries the equivalent gradient-vs-Laplacian
    form with coefficient (N-1)/(K N)."""
    _admit("integrated_bochner", N, K, space.dim)
    f = operators_for(space).field(f)
    grad_sq = integrate(space, f.dual_sq)
    lap_sq = integrate(space, f.lap * f.lap)
    direct = integrate(space, f.dlap_grad)
    lhs = K * grad_sq + (0.0 if math.isinf(N) else lap_sq / N)
    meta = {"adjointness_gap": direct + lap_sq}
    if K > 0:
        meta["dual_lhs"] = grad_sq
        meta["dual_rhs"] = lichnerowicz_coeff(N, K) * lap_sq
    return _report("integrated_bochner", N, K, lhs, lap_sq, **meta)


def check_bochner_pointwise(space: WeightedSpace, f: np.ndarray | Field, N: float,
                            K: float) -> CheckReport:
    """Pointwise Bochner floor: min over interior nodes of

        Gamma2(f) - K F^2(grad f) - (Lap f)^2 / N   >=   -POINTWISE_TOL_ABS.

    Nodes in the gradient-zero band are excluded from the floor for
    non-smooth norms (the unmasked minimum is reported in the metadata)."""
    _admit("bochner_pointwise", N, K, space.dim)
    ops = operators_for(space)
    interior = ops.interior_nodes("check_bochner_pointwise")
    f = ops.field(f)
    expr = f.g2 - K * f.dual_sq
    if not math.isinf(N):
        expr = expr - f.lap ** 2 / N
    floor = float(np.min(expr[f.pointwise]))
    return _report("bochner_pointwise", N, K, -floor, 0.0,
                   unmasked_floor=float(np.min(expr[interior])),
                   excluded_nodes=int(np.sum(interior & ~f.kink)))


# ----------------------------------------------------------------------
# Poincare

def check_poincare(space: WeightedSpace, f: np.ndarray | Field, N: float,
                   K: float) -> CheckReport:
    """Var_m(f) <= (N-1)/(K N) * int F^2(grad f) dm, K > 0."""
    _admit("poincare", N, K, space.dim)
    coeff = lichnerowicz_coeff(N, K)
    f = operators_for(space).field(f)
    grad_sq = integrate(space, f.dual_sq)
    return _report("poincare", N, K, variance(space, f.f), coeff * grad_sq)


def estimate_poincare_constant(space: WeightedSpace) -> float:
    """Sup of Var_m(f) / int F^2(grad f) dm by inverse iteration through the
    flow's implicit step (Hein-Buehler 2010): from the best bank member, step
    by tau = q, the current quotient, average (1, 2, 1)/4 along each axis to
    remove the odd-even mode that the central D cannot see, and renormalize,
    until the quotient stops rising or a step fails.  The best quotient of the
    raw and averaged iterates, each that of a grid function: a lower bound."""
    ops = operators_for(space)

    def quotient(g: np.ndarray) -> float:
        energy = integrate(space, ops.field(g).dual_sq)
        return variance(space, g) / energy if energy > 0 else -math.inf

    f = max((g for _, g in make_test_bank(space)), key=quotient)
    q = best = quotient(f)
    if not q > 0:
        raise ValueError("bank contained no field with positive energy")
    while True:
        try:
            raw = step(ops, f, q)
        except FlowSolverError:
            return best
        f = _normalize_member(space, _averaged(space, raw))
        q_f = -math.inf if f is None else quotient(f)
        best = max(best, quotient(raw), q_f)
        if not q_f > q:
            return best
        q = q_f


def _averaged(space: WeightedSpace, f: np.ndarray) -> np.ndarray:
    """f averaged (1, 2, 1)/4 along each axis, wrapped if periodic, else with
    the end nodes repeated."""
    g = f.reshape(space.shape)
    for a, n in enumerate(space.shape):
        p = np.pad(g, [(int(b == a),) * 2 for b in range(g.ndim)],
                   mode="wrap" if space.domain.periodic else "edge")
        g = (np.take(p, range(n), axis=a) + 2.0 * g + np.take(p, range(2, n + 2), axis=a)) / 4
    return g.reshape(-1)


# ----------------------------------------------------------------------
# entropy-type checks

def check_logsobolev(space: WeightedSpace, f: np.ndarray, N: float,
                     K: float) -> CheckReport:
    """Ent_m(f m) <= (N-1)/(2 K N) * int_{f>0} F^2(grad f)/f dm for a
    nonnegative density f (auto-normalized to unit mass, with a flag), for
    N in [n, inf]; N = inf is the classical limit with coefficient 1/(2K)."""
    _admit("logsobolev", N, K, space.dim)
    f = np.asarray(f, dtype=float)
    if np.min(f) < -1e-12:
        raise ValueError("logsobolev needs a nonnegative function")
    f = np.clip(f, 0.0, None)
    meta = {}
    total = integrate(space, f)
    if abs(total - 1.0) > 1e-8:
        if total <= 0:
            raise ValueError("logsobolev: function has zero mass")
        f = f / total
        meta["normalized"] = True
    fisher = fisher_information(space, f, operators_for(space).field(f).dual_sq)
    lhs = entropy_of_density(space, f)
    rhs = 0.5 * lichnerowicz_coeff(N, K) * fisher
    return _report("logsobolev", N, K, lhs, rhs, fisher=fisher, **meta)


def check_gamma2_integral(space: WeightedSpace, u: np.ndarray, N: float,
                          K: float) -> CheckReport:
    """int u F^2(grad log u) dm <= (N-1)/(K N) * int u Gamma2(log u) dm
    for u bounded away from zero."""
    _admit("gamma2_integral", N, K, space.dim)
    u = np.asarray(u, dtype=float)
    if np.min(u) <= 0:
        raise ValueError("gamma2_integral needs inf u > 0")
    log_u = operators_for(space).field(np.log(u))
    lhs = integrate(space, u * log_u.dual_sq)
    rhs = lichnerowicz_coeff(N, K) * integrate(space, u * log_u.g2)
    return _report("gamma2_integral", N, K, lhs, rhs)


def check_talagrand(space: WeightedSpace, mu: np.ndarray, N: float, K: float) -> CheckReport:
    """W2^2(mu, m) <= 2 (N-1)/(K N) * Ent_m(mu) for N in [n, inf), with the
    asymmetric squared-distance transport cost (mu is the source) and
    Ent_m(mu) the entropy of the density mu/m."""
    _admit("talagrand", N, K, space.dim)
    coeff = lichnerowicz_coeff(N, K)
    mu = np.asarray(mu, dtype=float)
    ent = entropy_of_density(space, mu / space.cell_mass)
    lhs = transport_cost_sq(space, mu, space.cell_mass)
    return _report("talagrand", N, K, lhs, 2.0 * coeff * ent, entropy=ent)


def check_entropy_energy(space: WeightedSpace, f: np.ndarray | Field, N: float,
                         K: float) -> CheckReport:
    """Ent_m(f^2 m) <= (N/2) log(1 + 4/(K N) int F^2(grad f) dm) for
    N in [n, inf), f normalized to unit L2 mass (flagged if rescaled)."""
    _admit("entropy_energy", N, K, space.dim)
    f = operators_for(space).field(f)
    meta = {}
    total = integrate(space, f.f * f.f)
    if total <= 0:
        raise ValueError("entropy_energy: zero function")
    if abs(total - 1.0) > 1e-8:
        meta["normalized"] = True
    # F*^2 is 2-homogeneous: the energy of f/||f||_2 is that of f over total
    lhs = entropy_of_density(space, f.f * f.f / total)
    grad_sq = integrate(space, f.dual_sq) / total
    rhs = 0.5 * N * math.log1p(4.0 * grad_sq / (K * N))
    return _report("entropy_energy", N, K, lhs, rhs, **meta)


def check_nash(space: WeightedSpace, f: np.ndarray | Field, N: float,
               K: float) -> CheckReport:
    """Nash inequality ||f||_2^{N+2} <= (||f||_2^2 + 4/(K N) E(f))^{N/2} ||f||_1^2
    with E(f) = (1/2) int F^2(grad f) dm, compared in the log domain so that
    large N neither overflows nor underflows."""
    _admit("nash", N, K, space.dim)
    f = operators_for(space).field(f)
    l2 = _lp_norm(space, f.f, 2.0)
    l1 = _lp_norm(space, f.f, 1.0)
    if l2 < 1e-300:
        return _report("nash", N, K, 0.0, 0.0, log_domain=True)
    energy = 0.5 * integrate(space, f.dual_sq)
    lhs = (N + 2.0) * math.log(l2)
    rhs = 0.5 * N * math.log(l2 * l2 + 4.0 * energy / (K * N)) + 2.0 * math.log(l1)
    return _report("nash", N, K, lhs, rhs, log_domain=True)


def check_nonsharp_sobolev(space: WeightedSpace, f: np.ndarray | Field, N: float,
                           K: float) -> CheckReport:
    """Non-sharp Sobolev bound with fully explicit constants:
    ||f||_p^2 <= 2^{4N/(N-2)} ( (4/3)||f||_2^2 + 4/(K N) E(f) ), p = 2N/(N-2),
    with E(f) = (1/2) int F^2(grad f) dm."""
    _admit("nonsharp_sobolev", N, K, space.dim)
    f = operators_for(space).field(f)
    p = 2.0 * N / (N - 2.0)
    lhs = _lp_norm(space, f.f, p) ** 2
    energy = 0.5 * integrate(space, f.dual_sq)
    const = 2.0 ** (4.0 * N / (N - 2.0))
    rhs = const * ((4.0 / 3.0) * _lp_norm(space, f.f, 2.0) ** 2 + 4.0 * energy / (K * N))
    return _report("nonsharp_sobolev", N, K, lhs, rhs, p=p, constant=const)


def _sobolev(checker: str, space: WeightedSpace, f: np.ndarray | Field, p: float,
             N: float, K: float) -> CheckReport:
    """The sharp Sobolev family at one p; p = 2 is its limit."""
    p_max = _sobolev_p_max(N)
    if not (1.0 - 1e-12 <= p <= p_max + 1e-12):
        raise ValueError(f"{checker}: p = {p} outside [1, {p_max}]")
    f = operators_for(space).field(f)
    l2 = _lp_norm(space, f.f, 2.0)
    if abs(p - 2.0) < 1e-9:  # the p -> 2 limit of the quotient
        l2_sq = l2 * l2
        lhs = 0.5 * l2_sq * entropy_of_density(space, f.f * f.f / l2_sq) if l2_sq > 0 else 0.0
    else:
        lp = _lp_norm(space, f.f, p)
        lhs = (lp * lp - l2 * l2) / (p - 2.0)
    rhs = lichnerowicz_coeff(N, K) * integrate(space, f.dual_sq)
    return _report(checker, N, K, lhs, rhs, p=p)


def check_sobolev(space: WeightedSpace, f: np.ndarray | Field, p: float, N: float,
                  K: float) -> CheckReport:
    """Sharp Sobolev family for N in [n, inf):

        (||f||_p^2 - ||f||_2^2)/(p - 2) <= (N-1)/(K N) int F^2(grad f) dm

    for 1 <= p <= 2(N+1)/N.  At p = 2 the lhs is the limit of the quotient,
    (1/2)||f||_2^2 Ent_m(f^2/||f||_2^2), under the same rhs."""
    _admit("sobolev", N, K, space.dim)
    return _sobolev("sobolev", space, f, p, N, K)


def check_sobolev_inf(space: WeightedSpace, f: np.ndarray | Field, p: float,
                      K: float) -> CheckReport:
    """Dimension-free Sobolev family (N = inf): for 1 <= p <= 2,

        (||f||_p^2 - ||f||_2^2)/(p - 2) <= (1/K) int F^2(grad f) dm,

    where the p < 2 sign of (p - 2) keeps the quotient nonnegative.  At
    p = 2 the lhs is its limit, (1/2)||f||_2^2 Ent_m(f^2/||f||_2^2)."""
    _admit("sobolev_inf", math.inf, K, space.dim)
    return _sobolev("sobolev_inf", space, f, p, math.inf, K)


# ----------------------------------------------------------------------
# exponent algebra for the sharp Sobolev proof parameters

@dataclass(frozen=True)
class SobolevExponents:
    p_basic_max: float
    p_extended_max: float
    b0_extremal: float
    a0_extremal: float


def sobolev_exponent_table(N: float) -> SobolevExponents:
    """Admissible-exponent table for dimension parameter N > 2.

    ``p_basic_max`` = 2(N+1)/N is the proved range; ``p_extended_max`` is
    the slightly larger threshold up to which the proof parameters stay
    feasible; at the critical exponent 2N/(N-2) the extremal parameter pair
    is (b0, a0) = (2(N-3)/(N-2), -2/(N-2)) with a0 < 0 (infeasible)."""
    if N <= 2:
        raise ValueError("exponent table needs N > 2")
    p_basic = _sobolev_p_max(N)
    p_ext = (7.0 * N * N + 2.0 * N + (N + 2.0) * math.sqrt(N * N + 8.0 * N)) \
        / (4.0 * N * (N - 1.0))
    p_crit = 2.0 * N / (N - 2.0)
    if not (p_basic <= p_ext + 1e-12 and p_ext <= p_crit + 1e-12):
        raise ArithmeticError("exponent ordering violated; N out of range?")
    return SobolevExponents(
        p_basic_max=p_basic,
        p_extended_max=p_ext,
        b0_extremal=2.0 * (N - 3.0) / (N - 2.0),
        a0_extremal=-2.0 / (N - 2.0),
    )


@dataclass(frozen=True)
class ABParameters:
    a0: float
    b0: float
    feasible: bool
    residuals: tuple


def ab_parameter_solver(N: float, p: float) -> ABParameters:
    """Solve the coefficient-matching system of the sharp Sobolev argument.

    Eliminating a = b/2 - (p-1)(N-1)/(N+2) leaves a quadratic in b; the
    larger root b0 >= 2(1 - (p-1)/(N+2)) is taken and a0 derived from it.
    Non-reversibility forces a, b >= 0, so a0 < 0 means the parameter pair
    is infeasible at this (N, p).  Both matching equations are re-verified
    to 1e-10."""
    if N <= 2:
        raise ValueError("parameter solver needs N > 2")
    q = (p - 1.0) / (N + 2.0) - 1.0
    r = -(p - 2.0) + (p - 1.0) ** 2 * ((N - 1.0) / (N + 2.0)) ** 2
    disc = q * q - r
    if disc < -1e-12:
        raise ValueError(
            f"negative discriminant at (N, p) = ({N}, {p}): p outside [1, {2*N/(N-2)}]"
        )
    b0 = 2.0 * (-q + math.sqrt(max(disc, 0.0)))
    a0 = 0.5 * b0 - (p - 1.0) * (N - 1.0) / (N + 2.0)
    res1 = abs((p - 1.0 - 0.5 * b0) - (3.0 * b0 - 2.0 * (N + 2.0) * a0) / (2.0 * (N - 1.0)))
    res2 = abs((p - 2.0) * (b0 - 1.0) - ((a0 - b0) ** 2 - N * a0 * a0) / (N - 1.0))
    if max(res1, res2) > 1e-10:
        raise ArithmeticError(f"parameter equations not satisfied: residuals {res1}, {res2}")
    return ABParameters(a0=a0, b0=b0, feasible=bool(a0 >= 0.0), residuals=(res1, res2))


FEASIBILITY_BISECTION_WIDTH = 1e-12  # bracket width at which the bisection stops


def feasibility_boundary(N: float) -> float:
    """Largest p with a feasible parameter pair, located by bisection on the
    sign of a0 between 2(N+1)/N and the critical exponent."""
    table = sobolev_exponent_table(N)
    lo, hi = table.p_basic_max, 2.0 * N / (N - 2.0)
    if ab_parameter_solver(N, lo).a0 < 0:
        raise ArithmeticError("a0 must be feasible at p = 2(N+1)/N")
    while hi - lo > FEASIBILITY_BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if ab_parameter_solver(N, mid).a0 >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# test bank

def _normalize_member(space: WeightedSpace, f: np.ndarray) -> Optional[np.ndarray]:
    f = np.asarray(f, dtype=float)
    f = f - integrate(space, f)
    amp = float(np.max(np.abs(f)))
    if amp < 1e-13:
        return None
    return f / amp


def make_test_bank(space: WeightedSpace, seed: int = 0, size: int = 12) -> tuple:
    """Reproducible bank of ``size`` smooth scalar fields, mean-zero and
    amplitude-normalized, as (label, field) pairs: the named fields of the
    space's dimension first, then seeded random modes, two normals per
    (mode, axis) for its cosine and sine."""
    if size < 1:
        raise ValueError("bank size must be >= 1")
    x = space.coords[:, 0]
    Lx = space.domain.lengths[0]
    raw = []
    if space.dim == 1:
        raw += [
            ("linear", x),
            ("quadratic", x**2),
            ("cubic", x**3),
            ("mode-sin1", np.sin(2 * np.pi * x / Lx)),
            ("mode-cos1", np.cos(2 * np.pi * x / Lx)),
            ("mode-sin2", np.sin(4 * np.pi * x / Lx)),
            ("tilt-pos", np.exp(1.6 * x / Lx)),
            ("tilt-neg", np.exp(-1.2 * x / Lx)),
            ("bump", np.exp(-((x - 0.1 * Lx) / (0.15 * Lx)) ** 2)),
        ]
    else:
        y = space.coords[:, 1]
        Ly = space.domain.lengths[1]
        raw += [
            ("linear-x", x),
            ("linear-y", y),
            ("mode-x", np.sin(2 * np.pi * x / Lx)),
            ("mode-y", np.cos(2 * np.pi * y / Ly)),
            ("mode-xy", np.sin(2 * np.pi * x / Lx) * np.cos(2 * np.pi * y / Ly)),
            ("tilt", np.exp(0.8 * (x / Lx + y / Ly))),
            ("bump", np.exp(-((x / (0.2 * Lx)) ** 2 + (y / (0.2 * Ly)) ** 2))),
        ]
    rng = np.random.default_rng(seed)
    members = []
    for label, f in raw:
        g = _normalize_member(space, f)
        if g is not None:
            members.append((label, g))
        if len(members) == size:
            break
    k = 0
    while len(members) < size:
        f = np.zeros(space.n_nodes)
        for m in np.arange(1, 5):
            for t, L in zip(space.coords.T, space.domain.lengths):
                a, b = rng.standard_normal(2) / m**2
                f = f + a * np.cos(2 * np.pi * m * t / L) + b * np.sin(2 * np.pi * m * t / L)
        g = _normalize_member(space, f)
        if g is not None:
            members.append((f"noise-{k}", g))
        k += 1
    return tuple(members)


# ----------------------------------------------------------------------
# the regression matrix

def _shifted(g: Field) -> np.ndarray:
    """1 + 0.45 g, positive on a bank member (mean zero, max|g| = 1)."""
    return 1.0 + 0.45 * g.f


def _positive_density(g: Field) -> np.ndarray:
    """``_shifted(g)`` at unit mass."""
    f = _shifted(g)
    return f / integrate(g.ops.space, f)


def _sobolev_p_grid(N: float) -> List[float]:
    p_max = _sobolev_p_max(N)
    return sorted({p for p in (1.0, 1.5, 2.0, p_max) if p <= p_max + 1e-12})


def _measure_from_member(g: Field) -> np.ndarray:
    """``_shifted(g)`` times the cell masses, at unit total mass."""
    mu = _shifted(g) * g.ops.space.cell_mass
    return mu / mu.sum()


#: the N ranges of ``_MATRIX``, applied to N already admissible on the space
_N_RANGES = {
    "all": lambda N: True,
    "N > 0": lambda N: N > 0,
    "finite N > 0": lambda N: 0 < N < math.inf,
    "finite N > 2": lambda N: 2 < N < math.inf,
    "N = inf": lambda N: N == math.inf,
}

# checker id -> (the N range where the checker is defined, whether it needs
# K > 0, the reports for the record g of one bank member).  A density made
# from g is passed as an array.  ``_admit`` holds each checker to its row and
# the matrix runs it there.  Each adapter looks its checker up by
# module-level name at call time, so a wrapper set on the module is seen.
_MATRIX = {
    "integrated_bochner": ("all", False, lambda s, g, N, K: [
        check_integrated_bochner(s, g, N, K)]),
    "bochner_pointwise": ("all", False, lambda s, g, N, K: [
        check_bochner_pointwise(s, g, N, K)]),
    "poincare": ("all", True, lambda s, g, N, K: [check_poincare(s, g, N, K)]),
    "logsobolev": ("N > 0", True, lambda s, g, N, K: [
        check_logsobolev(s, _positive_density(g), N, K)]),
    "gamma2_integral": ("N > 0", True, lambda s, g, N, K: [
        check_gamma2_integral(s, _shifted(g), N, K)]),
    "talagrand": ("finite N > 0", True, lambda s, g, N, K: [
        check_talagrand(s, _measure_from_member(g), N, K)]),
    "entropy_energy": ("finite N > 0", True, lambda s, g, N, K: [
        check_entropy_energy(s, g, N, K)]),
    "nash": ("finite N > 0", True, lambda s, g, N, K: [check_nash(s, g, N, K)]),
    "nonsharp_sobolev": ("finite N > 2", True, lambda s, g, N, K: [
        check_nonsharp_sobolev(s, g, N, K)]),
    "sobolev": ("finite N > 0", True, lambda s, g, N, K: [
        check_sobolev(s, g, p, N, K) for p in _sobolev_p_grid(N)]),
    "sobolev_inf": ("N = inf", True, lambda s, g, N, K: [
        check_sobolev_inf(s, g, p, K) for p in _sobolev_p_grid(N)]),
}

CHECKER_IDS = tuple(_MATRIX)


def runs_at(checker: str, N: float, K: float = math.inf) -> bool:
    """Whether the matrix runs ``checker`` at an N admissible on the space
    and at the curvature constant K (by default, at any positive K)."""
    n_range, needs_positive_K, _ = _MATRIX[checker]
    return _N_RANGES[n_range](N) and (K > 0 or not needs_positive_K)


def run_checker_matrix(space: WeightedSpace, N_values: Sequence[float],
                       checkers: Optional[Sequence[str]] = None,
                       bank: Optional[Sequence] = None, seed: int = 0,
                       bank_size: int = 12,
                       override_K: Optional[float] = None) -> List[CheckReport]:
    """Run the (checker x N x bank) matrix on one space.

    K is taken from ``effective_K`` on this very space for each N unless
    ``override_K`` pins it (falsification runs).  Checkers are applied only
    at the N range and K sign of their ``_MATRIX`` entry; reports come back
    in deterministic order.  Each bank member, an array or a record, gets one
    record that every N and checker reads."""
    chosen = list(checkers) if checkers else list(CHECKER_IDS)
    unknown = [c for c in chosen if c not in CHECKER_IDS]
    if unknown:
        raise ValueError(f"unknown checkers: {unknown}")
    bank = bank if bank is not None else make_test_bank(space, seed=seed, size=bank_size)
    bank = [(label, operators_for(space).field(g)) for label, g in bank]
    reports: List[CheckReport] = []
    for N in N_values:
        if not admissible_N(N, space.dim):
            raise ValueError(f"matrix: N = {N} not admissible on this space")
        K = override_K if override_K is not None else effective_K(space, N).K_eff
        for checker in (c for c in chosen if runs_at(c, N, K)):
            for label, g in bank:
                reports.extend(replace(rep, metadata={**rep.metadata, "member": label})
                               for rep in _MATRIX[checker][2](space, g, N, K))
    return reports

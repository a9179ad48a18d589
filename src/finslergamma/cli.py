"""Batch front door: ``fg <group> <action> --config <file>``.

Subcommands
-----------
* ``fg space describe``  -- smoothness constant, effective curvature per N,
  measure statistics.
* ``fg flow run``        -- heat flow with observable series (CSV) and fitted
  decay rates checked against 2KN/(N-1) (JSON summary).
* ``fg ineq check``      -- the inequality checker matrix (JSON report).
* ``fg identities run``  -- identity residuals on a circle or torus at the
  domain's resolution and with every axis's resolution doubled, for the
  exponents ``IDENTITY_A_VALUES``, with convergence orders log2 of their
  ratio (JSON table).  No config key sets the suite's grids or exponents.

Exit codes: 0 all checks passed, 1 some check failed, 2 invalid config,
3 runtime/solver error.  Outputs are deterministic for a fixed config and
seed: keys are sorted and floats rendered with 17 significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .calculus import DiffOperators, operators_for
from .config import ConfigError, ExperimentConfig, load_config
from .heatflow import check_dEdt_identity, decay_rates, evolve, observables
from .inequalities import CHECKER_IDS, make_test_bank, run_checker_matrix, runs_at
from .norms import uniform_smoothness
from .space import integrate

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME = 3

ADJOINTNESS_TOL = 2e-15  # on the relative gap of ``_adjointness_residual``
ORDER_THRESHOLD = 1.8
IDENTITY_A_VALUES = (0.25, 0.5, 1.0)  # exponents a of the exp(a h) identities


# ----------------------------------------------------------------------
# deterministic JSON rendering

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


# a JSON string: '"', '\\' and control characters escaped, the rest as is
_quote = json.JSONEncoder(ensure_ascii=False).encode


def render_json(obj, indent: int = 0) -> str:
    if isinstance(obj, (float, np.floating)):  # most values of a report
        return _fmt_float(float(obj))
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(f"{pad}  {_quote(str(key))}: {render_json(obj[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return _quote(str(obj))


def _num_key(N: float) -> str:
    if math.isinf(N):
        return "inf"
    return format(N, ".17g")


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _report_to_dict(rep) -> dict:
    doc = dict(vars(rep))
    doc["pass"] = doc.pop("passed")
    return doc


def _space_summary(space, K: dict) -> dict:
    mass = space.cell_mass
    return {
        "S_F": uniform_smoothness(space.norm),
        "K_eff": {_num_key(N): k for N, k in K.items()},
        "measure": {
            "nodes": space.n_nodes,
            "total_mass": float(mass.sum()),
            "min_cell_mass": float(mass.min()),
            "max_cell_mass": float(mass.max()),
        },
    }


# ----------------------------------------------------------------------
# subcommands

def cmd_space_describe(config: ExperimentConfig, out_dir: str, args) -> int:
    space = config.build_space()
    doc = {"config": config.raw,
           "space": _space_summary(space, config.curvature_table(space))}
    path = _write(out_dir, "describe.json", render_json(doc) + "\n")
    summary = doc["space"]
    print(f"S_F = {summary['S_F']:.6g}")
    for key, val in summary["K_eff"].items():
        print(f"K_eff(N={key}) = {val:.6g}")
    print(f"nodes = {summary['measure']['nodes']}, report -> {path}")
    return EXIT_OK


def cmd_flow_run(config: ExperimentConfig, out_dir: str, args) -> int:
    if config.flow is None:
        raise ConfigError("config key 'flow': required for `fg flow run`")
    space = config.build_space()
    ops = operators_for(space)  # held first, so effective_K shares it
    K = config.curvature_table(space)
    bounded = {N: k for N, k in K.items() if k > 0}
    if not bounded:
        raise ConfigError("config key 'n_values': `fg flow run` needs an N with K > 0, "
                          "or no decay rate has a bound to be checked against")
    try:
        u0 = space.field_from_expression(config.flow.u0)
    except ValueError as exc:
        raise ConfigError(f"config key 'flow.u0': {exc}") from exc
    states = evolve(ops, u0, config.flow.params)

    lines = ["t,energy,variance,entropy,fisher"]
    for s in states:
        lines.append(",".join(format(v, ".17g") for v in
                              (s.t, s.energy, s.variance, s.entropy, s.fisher)))
    series_path = _write(out_dir, "flow_series.csv", "\n".join(lines) + "\n")

    rates = decay_rates(states)
    bounds = {}
    all_pass = True
    for N, k in bounded.items():
        bound = 2.0 * k if math.isinf(N) else 2.0 * k * N / (N - 1.0)
        entry = {"K": k, "rate_bound": bound}
        for name in ("variance", "entropy"):
            rate = rates[f"{name}_rate"]
            # a NaN rate (a tail with a non-finite value) is no verdict: null
            ok = None if math.isnan(rate) else rate >= bound * 0.95
            entry[f"{name}_rate"], entry[f"{name}_pass"] = rate, ok
            all_pass = all_pass and ok is not False
        bounds[_num_key(N)] = entry

    doc = {"config": config.raw, "space": _space_summary(space, K),
           "rates": rates, "bounds": bounds,
           "mass_drift": abs(integrate(space, states[-1].u) - integrate(space, states[0].u))}
    summary_path = _write(out_dir, "flow_summary.json", render_json(doc) + "\n")
    print(f"series -> {series_path}\nsummary -> {summary_path}")
    for key, entry in bounds.items():
        print(f"N={key}: variance_rate={entry['variance_rate']} "
              f"bound={entry['rate_bound']:.6g} pass={entry['variance_pass']}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_ineq_check(config: ExperimentConfig, out_dir: str, args) -> int:
    if not config.n_values:
        raise ConfigError("config key 'n_values': required for `fg ineq check`")
    space = config.build_space()
    ops = operators_for(space)  # held first, so effective_K shares it
    K = config.curvature_table(space, args.override_k)
    chosen = config.checkers or CHECKER_IDS
    if not any(runs_at(c, N, K[N]) for c in chosen for N in config.n_values):
        raise ConfigError("config key 'checkers': none of them runs at any N in "
                          "'n_values' with the K there (most need K > 0)")
    if "bochner_pointwise" in chosen and not ops.interior.any():
        raise ConfigError("config key 'space.domain.resolution': the pointwise Bochner "
                          f"check needs more than {2 * DiffOperators.BOUNDARY_WIDTH} "
                          "nodes on each axis, or it has no interior node")
    seed = args.seed if args.seed is not None else config.bank_seed
    # one record per member, read at every N
    bank = [(label, ops.field(g))
            for label, g in make_test_bank(space, seed=seed, size=config.bank_size)]
    reports = []
    error = None
    # N values run one at a time so a checker error still leaves a partial
    # report on disk
    for N in config.n_values:
        try:
            reports.extend(run_checker_matrix(
                space, [N], checkers=config.checkers, bank=bank,
                override_K=K[N]))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc} (at N = {_num_key(N)})"
            break
    doc = {
        "config": config.raw,
        "seed": seed,
        "override_k": args.override_k,
        "space": _space_summary(space, K),
        "checks": [_report_to_dict(r) for r in reports],
        "error": error,
    }
    path = _write(out_dir, "ineq_report.json", render_json(doc) + "\n")
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports)} checks, {n_fail} failed, report -> {path}")
    if error:
        print(f"aborted: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    if n_fail:
        for r in reports:
            if not r.passed:
                print(f"FAIL {r.checker} N={_num_key(r.N)} member="
                      f"{r.metadata.get('member')} margin={r.margin:.3e}")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


def _adjointness_residual(ops: DiffOperators, rng: np.random.Generator) -> float:
    """max over 20 random pairs (phi, V) of |int phi div V dm + int Dphi.V dm|
    relative to int |phi div V| dm: both integrals scale as 1/h, so an
    absolute gap would read the unit of length."""
    space = ops.space
    worst = 0.0
    for _ in range(20):
        phi = rng.standard_normal(space.n_nodes)
        V = rng.standard_normal((space.n_nodes, space.dim))
        phi_div = phi * ops.divergence(V)
        lhs = integrate(space, phi_div)
        rhs = -integrate(space, np.einsum("mi,mi->m", ops.differential(phi), V))
        worst = max(worst, abs(lhs - rhs) / integrate(space, np.abs(phi_div)))
    return worst


def cmd_identities(config: ExperimentConfig, out_dir: str, args) -> int:
    if not config.domain.periodic:
        raise ConfigError("config key 'space.domain.geometry': identity suite "
                          "needs a periodic domain (circle or torus)")
    # the convergence order is log2 of the residual ratio: every axis doubled
    double = dataclasses.replace(config.domain, resolution=tuple(
        2 * n for n in config.domain.resolution))
    bundles = [operators_for(c.build_space())  # held to the end: the first grid's K shares it
               for c in (config, dataclasses.replace(config, domain=double))]
    K = config.curvature_table(bundles[0].space)
    results = []
    for ops in bundles:
        waves = np.sin(2 * np.pi * ops.space.coords / config.domain.lengths).sum(axis=1)
        h = ops.field(0.3 * waves)
        entry = {}
        for a in IDENTITY_A_VALUES:
            for name, residual in ops.identity_residuals(h, a).items():
                entry[f"{name}(a={a:g})"] = residual
        # one implicit step solved backwards: u - u_prev = tau Lap u holds to
        # rounding, so the pair needs no Newton solve
        tau = 0.05 * min(ops.space.h) ** 2
        u = 1.0 + 0.1 * waves
        pair = [observables(ops, 0.0, u - tau * ops.laplacian(u)), observables(ops, tau, u)]
        entry["dissipation"] = check_dEdt_identity(ops, pair).residual
        rng = np.random.default_rng(config.bank_seed)
        entry["adjointness"] = _adjointness_residual(ops, rng)
        results.append(entry)

    lo, hi = results
    table = []
    all_pass = True
    for name in sorted(lo):
        r1, r2 = lo[name], hi[name]
        if name == "adjointness":
            order, passed = None, max(r1, r2) <= ADJOINTNESS_TOL
        else:
            order = math.log2(r1 / r2) if r2 > 0 else math.inf
            passed = order >= ORDER_THRESHOLD
        table.append({"name": name, "residuals": [r1, r2], "order": order, "pass": passed})
        all_pass = all_pass and passed

    doc = {"config": config.raw, "resolutions": [ops.space.n_nodes for ops in bundles],
           "space": _space_summary(bundles[0].space, K),
           "identities": table}
    path = _write(out_dir, "identities.json", render_json(doc) + "\n")
    for row in table:
        order = row["order"]
        otext = "exact" if order is None else f"order={order:.2f}"
        print(f"{'PASS' if row['pass'] else 'FAIL'} {row['name']}: "
              f"residuals {row['residuals'][0]:.3e} -> {row['residuals'][1]:.3e} ({otext})")
    print(f"report -> {path}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ----------------------------------------------------------------------

_COMMANDS = {
    ("space", "describe"): cmd_space_describe,
    ("flow", "run"): cmd_flow_run,
    ("ineq", "check"): cmd_ineq_check,
    ("identities", "run"): cmd_identities,
}


def _flag_type(parse, valid, expected: str):
    """An argparse ``type``: a bad value exits 2 with a message naming the flag."""
    def convert(text: str):
        try:
            if valid(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


@functools.cache  # one parser per process; parsing does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fg", description="flat weighted Minkowski space verification toolkit")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, action in _COMMANDS:
        g = sub.add_parser(group)
        gsub = g.add_subparsers(dest="action", required=True)
        a = gsub.add_parser(action)
        a.add_argument("--config", required=True, help="experiment JSON")
        a.add_argument("--out", default=".", help="output directory")
        if (group, action) == ("ineq", "check"):
            a.add_argument("--seed", default=None, help="bank seed override",
                           type=_flag_type(int, lambda n: n >= 0, "a non-negative integer"))
            a.add_argument("--override-k", default=None,
                           type=_flag_type(float, math.isfinite, "a finite number"),
                           help="pin the curvature constant (falsification runs only)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        handler = _COMMANDS[(args.group, args.action)]
        return handler(config, args.out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # solver/runtime failures surface as exit 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Experiment configuration: a single JSON document per experiment.

The schema is validated eagerly with key-path diagnostics, and unknown keys
are rejected so that a typo cannot silently drop part of an experiment.
``"inf"`` is the spelling of N = infinity in JSON.  No key sets a pass rule,
the heat flow's Newton tolerance or iteration cap, or the identity suite's
test field, exponents or grids (the suite runs on the domain's grid and on
it with every axis doubled): those are fixed in code, so a config chooses
what is checked, never how strictly.  JSON integers are kept exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .calculus import operators_for
from .curvature import admissible_N, effective_K
from .heatflow import MIN_RATE_SAMPLES, FlowParams
from .norms import AsymNorm1D, EuclideanNorm, MinkowskiNorm, RandersNorm
from .space import MIN_RESOLUTION, Domain, WeightedSpace, _evaluate, build_space

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config"]

MAX_FLOW_STEPS = 10**6  # longest accepted flow: round(t_end / tau) implicit steps
MAX_BANK_SIZE = 1000  # largest accepted test bank: members per (checker, N)
MAX_NODES = 2**16  # largest accepted grid (256^2 in 2D): the identity suite doubles each axis


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the key path."""


def _fail(path: str, message: str):
    raise ConfigError(f"config key {path!r}: {message}")


def _expect_mapping(obj, path: str, allowed: set, required: set = frozenset()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = required - set(obj)
    if missing:
        _fail(path, f"missing required keys {sorted(missing)}")
    return obj


def _number(obj, path: str, allow_inf: bool = False) -> float:
    """A finite number; +-inf too where ``allow_inf`` is set, never NaN."""
    if allow_inf and obj in ("inf", "Infinity"):
        return math.inf
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, f"expected a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        _fail(path, f"expected a finite number, got {obj!r}")
    return value


def _integer(obj, path: str, minimum: int) -> int:
    """A whole number >= ``minimum``; a JSON integer is returned exact, not
    rounded through a float."""
    value = _number(obj, path)
    if not value.is_integer() or value < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {obj!r}")
    return obj if isinstance(obj, int) else int(value)


def _parse_norm(obj, path: str) -> MinkowskiNorm:
    _expect_mapping(obj, path, {"variant", "matrix", "drift", "alpha", "beta"},
                    {"variant"})
    variant = obj["variant"]
    try:
        if variant == "euclidean":
            _expect_mapping(obj, path, {"variant", "matrix"}, {"matrix"})
            return EuclideanNorm(np.array(obj["matrix"], dtype=float))
        if variant == "randers":
            _expect_mapping(obj, path, {"variant", "matrix", "drift"},
                            {"matrix", "drift"})
            return RandersNorm(np.array(obj["matrix"], dtype=float),
                               np.array(obj["drift"], dtype=float))
        if variant == "asym1d":
            _expect_mapping(obj, path, {"variant", "alpha", "beta"},
                            {"alpha", "beta"})
            return AsymNorm1D(_number(obj["alpha"], path + ".alpha"),
                              _number(obj["beta"], path + ".beta"))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))
    _fail(path + ".variant", f"unknown norm variant {variant!r}")


def _parse_domain(obj, path: str) -> Domain:
    _expect_mapping(obj, path, {"geometry", "lengths", "resolution"},
                    {"geometry", "lengths", "resolution"})
    for key in ("lengths", "resolution"):
        if not isinstance(obj[key], list):
            _fail(f"{path}.{key}", f"expected a list, got {obj[key]!r}")
    lengths = tuple(_number(L, f"{path}.lengths[{i}]")
                    for i, L in enumerate(obj["lengths"]))
    resolution = tuple(_integer(r, f"{path}.resolution[{i}]", MIN_RESOLUTION)
                       for i, r in enumerate(obj["resolution"]))
    nodes = math.prod(resolution)
    if nodes > MAX_NODES:
        _fail(f"{path}.resolution", f"{nodes} nodes exceed the cap of {MAX_NODES}")
    try:
        return Domain(geometry=obj["geometry"], lengths=lengths, resolution=resolution)
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


@dataclass
class FlowConfig:
    u0: str
    params: FlowParams


@dataclass
class ExperimentConfig:
    domain: Domain
    norm: MinkowskiNorm
    psi: str
    n_values: List[float]
    checkers: Optional[List[str]]
    bank_seed: int
    bank_size: int
    flow: Optional[FlowConfig]
    raw: dict

    def build_space(self) -> WeightedSpace:
        # parse_config builds no grid, so a bad or (if periodic) non-repeating Psi fails here
        try:
            space = build_space(self.domain, self.norm, self.psi)
        except ValueError as exc:
            _fail("space.psi", str(exc))
        for shift in np.diag(self.domain.lengths) if self.domain.periodic else ():
            try:
                jump = np.max(np.abs(_evaluate(self.psi, space.coords + shift) - space.psi))
            except ValueError:  # not finite one period on, so not periodic
                jump = math.inf
            if jump > 1e-9 * (1 + np.max(np.abs(space.psi))):
                _fail("space.psi", f"Psi is not periodic: it moves by {jump:.3g} over a period")
        return space

    def curvature_table(self, space: WeightedSpace, override_K=None) -> dict:
        """{N: K} for each N of the config, ``effective_K`` solved once per N
        on ``space``; an N = n that Psi rules out fails with its key path,
        also where ``override_K`` then pins every K."""
        table = {}
        held = operators_for(space) if self.n_values else None  # one bundle for every N
        for i, N in enumerate(self.n_values):
            try:
                table[N] = effective_K(space, N).K_eff
            except ValueError as exc:  # N = n on a Psi it rules out
                _fail(f"n_values[{i}]", str(exc))
        return table if override_K is None else dict.fromkeys(table, override_K)


_TOP_KEYS = {"space", "n_values", "checkers", "bank", "flow"}


def parse_config(doc: dict) -> ExperimentConfig:
    _expect_mapping(doc, "<root>", _TOP_KEYS, {"space"})

    space_obj = _expect_mapping(doc["space"], "space",
                                {"domain", "norm", "psi"}, {"domain", "norm"})
    domain = _parse_domain(space_obj["domain"], "space.domain")
    norm = _parse_norm(space_obj["norm"], "space.norm")
    if norm.dim != domain.dim:
        _fail("space.norm", f"norm dimension {norm.dim} does not match domain "
                            f"dimension {domain.dim}")
    psi = space_obj.get("psi", "0")
    if not isinstance(psi, str):
        _fail("space.psi", "expected an expression string")

    n_values = doc.get("n_values", [])
    if not isinstance(n_values, list):
        _fail("n_values", f"expected a list, got {n_values!r}")
    n_values = [_number(v, f"n_values[{i}]", allow_inf=True)
                for i, v in enumerate(n_values)]
    for i, N in enumerate(n_values):
        if not admissible_N(N, domain.dim):
            _fail(f"n_values[{i}]", f"N = {N} is inadmissible "
                                    f"(need a finite N < 0, or N >= {domain.dim})")
    duplicates = sorted({N for N in n_values if n_values.count(N) > 1})
    if duplicates:
        _fail("n_values", f"duplicate N {duplicates}")

    checkers = doc.get("checkers")
    if checkers is not None:
        if not isinstance(checkers, list) or not all(isinstance(c, str) for c in checkers):
            _fail("checkers", "expected a list of checker names")
        if not checkers:
            _fail("checkers", "expected at least one name (omit the key to run all)")
        duplicates = sorted({c for c in checkers if checkers.count(c) > 1})
        if duplicates:
            _fail("checkers", f"duplicate checkers {duplicates}")
        from .inequalities import CHECKER_IDS
        unknown = [c for c in checkers if c not in CHECKER_IDS]
        if unknown:
            _fail("checkers", f"unknown checkers {unknown}; "
                              f"available: {sorted(CHECKER_IDS)}")

    bank = _expect_mapping(doc.get("bank", {}), "bank", {"seed", "size"})
    bank_seed = _integer(bank.get("seed", 0), "bank.seed", 0)
    bank_size = _integer(bank.get("size", 12), "bank.size", 1)
    if bank_size > MAX_BANK_SIZE:
        _fail("bank.size", f"{bank_size} members exceed the cap of {MAX_BANK_SIZE}")

    flow = None
    if "flow" in doc:
        fobj = _expect_mapping(doc["flow"], "flow",
                               {"u0", "tau", "t_end", "stride"}, {"u0", "tau", "t_end"})
        if not isinstance(fobj["u0"], str):
            _fail("flow.u0", "expected an expression string")
        values = {key: _number(fobj[key], f"flow.{key}") for key in ("tau", "t_end")}
        for key, value in values.items():
            if value <= 0:
                _fail(f"flow.{key}", "must be positive")
        if "stride" in fobj:
            values["stride"] = _integer(fobj["stride"], "flow.stride", 1)
        flow = FlowConfig(u0=fobj["u0"], params=FlowParams(**values))
        n_steps = flow.params.t_end / flow.params.tau
        if not (math.isfinite(n_steps) and 1 <= round(n_steps) <= MAX_FLOW_STEPS):
            _fail("flow.t_end", f"t_end / tau = {n_steps:g} must round to a step "
                                f"count in [1, {MAX_FLOW_STEPS}]")
        samples = 1 + math.ceil(round(n_steps) / flow.params.stride)
        if samples < MIN_RATE_SAMPLES:
            _fail("flow.stride", f"records {samples} samples (1 + ceil(steps / stride)); "
                                 f"a decay rate needs {MIN_RATE_SAMPLES}")

    return ExperimentConfig(domain=domain, norm=norm, psi=psi, n_values=n_values,
                            checkers=checkers, bank_seed=bank_seed,
                            bank_size=bank_size, flow=flow, raw=doc)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line {exc.lineno}, "
                          f"{exc.msg}") from exc
    return parse_config(doc)

"""Reading and checking the reports one ``fg`` command wrote.

Each report is hashed (byte identity across passes and against the
captured reference), reduced to a verdict vector ('P' pass, 'F' fail, '-'
no verdict), and checked for invariants that hold whatever the verdicts
are: unit total mass, a nonincreasing energy along the implicit flow, mass
conservation, exact adjointness, and an exit code that agrees with the
verdicts.  A broken invariant makes the run incorrect; a changed verdict
or hash is only reported, since a correctness fix may change them on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from workloads import REPORTS

MASS_TOL = 1e-9
ADJOINTNESS_TOL = 1e-13
SERIES_HEADER = "t,energy,variance,entropy,fisher"


class Unreadable(Exception):
    """A report is missing or does not parse."""


@dataclass
class Outcome:
    digests: dict = field(default_factory=dict)   # file name -> sha256 hex
    verdicts: str = ""
    output_bytes: int = 0
    problems: list = field(default_factory=list)  # broken invariants
    unreadable: str = ""                          # why a report could not be read


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise Unreadable(f"{os.path.basename(path)}: {exc}") from exc


def _mark(flag) -> str:
    return "-" if flag is None else ("P" if flag else "F")


def _expected_code(verdicts: str) -> int:
    return 1 if "F" in verdicts else 0


def _check_describe(doc, config, out):
    measure = doc["space"]["measure"]
    nodes = math.prod(config["space"]["domain"]["resolution"])
    if measure["nodes"] != nodes:
        out.problems.append(f"describe: {measure['nodes']} nodes, expected {nodes}")
    if abs(measure["total_mass"] - 1.0) > MASS_TOL:
        out.problems.append(f"describe: total mass {measure['total_mass']!r}")
    if not doc["space"]["S_F"] >= 1.0 - 1e-9:
        out.problems.append(f"describe: smoothness constant {doc['space']['S_F']!r} < 1")
    if len(doc["space"]["K_eff"]) != len(config.get("n_values", [])):
        out.problems.append("describe: K_eff missing for some N")


def _check_ineq(doc, seed, out):
    out.verdicts = "".join(_mark(c["pass"]) for c in doc["checks"])
    if doc["error"] is not None:
        out.problems.append(f"ineq: checker error {doc['error']}")
    if doc["seed"] != seed:
        out.problems.append(f"ineq: report seed {doc['seed']}, expected {seed}")
    if not doc["checks"] or "-" in out.verdicts:
        out.problems.append("ineq: empty matrix or a check without a verdict")


def _check_flow(series_path, doc, config, out):
    try:
        with open(series_path) as fh:
            lines = fh.read().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except (OSError, ValueError) as exc:
        raise Unreadable(f"flow_series.csv: {exc}") from exc
    if not lines or lines[0] != SERIES_HEADER or any(len(r) != 5 for r in rows):
        raise Unreadable("flow_series.csv: unexpected layout")
    flow = config["flow"]
    n_steps = int(round(flow["t_end"] / flow["tau"]))
    stride = flow.get("stride", 1)
    expected = 1 + sum(1 for k in range(1, n_steps + 1) if k % stride == 0 or k == n_steps)
    if len(rows) != expected:
        out.problems.append(f"flow: {len(rows)} samples, expected {expected}")
    t = [r[0] for r in rows]
    energy = [r[1] for r in rows]
    if any(b <= a for a, b in zip(t, t[1:])):
        out.problems.append("flow: sample times not increasing")
    # the minimizing-movement step decreases the energy at every step
    if any(b > a + 1e-12 * abs(a) for a, b in zip(energy, energy[1:])):
        out.problems.append("flow: energy increased along the flow")
    if not doc["mass_drift"] <= MASS_TOL:
        out.problems.append(f"flow: mass drift {doc['mass_drift']!r}")
    out.verdicts = "".join(_mark(doc["bounds"][key].get(name))
                           for key in sorted(doc["bounds"])
                           for name in ("variance_pass", "entropy_pass"))


def _check_identities(doc, out):
    out.verdicts = "".join(_mark(row["pass"]) for row in doc["identities"])
    adj = [row for row in doc["identities"] if row["name"] == "adjointness"]
    if not adj or max(adj[0]["residuals"]) > ADJOINTNESS_TOL:
        out.problems.append("identities: discrete adjointness is not exact")


def inspect(group: str, action: str, config: dict, out_dir: str, code: int,
            seed: int) -> Outcome:
    """Hash, read and check the reports of one command that returned ``code``."""
    out = Outcome()
    files = REPORTS[(group, action)]
    try:
        for name in files:
            path = os.path.join(out_dir, name)
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise Unreadable(f"{name}: {exc}") from exc
            out.digests[name] = hashlib.sha256(data).hexdigest()
            out.output_bytes += len(data)
        doc = _load_json(os.path.join(out_dir, files[-1]))
        try:
            if group == "space":
                _check_describe(doc, config, out)
            elif group == "ineq":
                _check_ineq(doc, seed, out)
            elif group == "flow":
                _check_flow(os.path.join(out_dir, files[0]), doc, config, out)
            else:
                _check_identities(doc, out)
        except (KeyError, TypeError) as exc:
            raise Unreadable(f"{files[-1]}: missing or malformed field {exc}") from exc
    except Unreadable as exc:
        out.unreadable = str(exc)
        return out
    if code != _expected_code(out.verdicts):
        out.problems.append(f"{group} {action}: exit code {code} disagrees with "
                            f"verdicts {out.verdicts!r}")
    return out


def clear(group: str, action: str, out_dir: str) -> None:
    """Remove a command's reports so a stale file cannot pass for a new one."""
    for name in REPORTS[(group, action)]:
        try:
            os.remove(os.path.join(out_dir, name))
        except FileNotFoundError:
            pass

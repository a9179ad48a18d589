"""The benchmark's workloads: each is a fixed list of ``fg`` commands.

Paths are relative to the root of a checkout.  Only ``fg ineq check``
takes a seed; the workload seed maps onto one of ``REFERENCE_SEEDS`` bank
seeds so that every run can be compared with a reference captured for
exactly that input.
"""

from __future__ import annotations

RANDERS_BOX = "perfbench/configs/randers_box2d.json"
GAUSS_ASYM = "configs/gaussian_asym1d.json"
CIRCLE = "configs/circle_identities.json"

#: bank seeds 0 .. REFERENCE_SEEDS-1 have a captured reference
REFERENCE_SEEDS = 16

#: name -> (why it was chosen, [(group, action, config)])
WORKLOADS = {
    "randers2d": (
        "2D Randers box: the numeric Randers dual, Legendre map and FD metric "
        "(norms) dominate the checker matrix and the flow",
        [("space", "describe", RANDERS_BOX),
         ("ineq", "check", RANDERS_BOX),
         ("flow", "run", RANDERS_BOX)]),
    "flow-asym1d": (
        "800 implicit steps on the shipped 1D config: Jacobian assembly, Newton "
        "bookkeeping and the sparse solve (heatflow, calculus); closed-form norm",
        [("flow", "run", GAUSS_ASYM)]),
    "suite-1d": (
        "cheap 1D commands where per-call construction dominates: the control "
        "for norms and heatflow changes, and where added set-up work shows",
        [("space", "describe", GAUSS_ASYM),
         ("ineq", "check", GAUSS_ASYM),
         ("identities", "run", CIRCLE)]),
}

#: report files each command writes into its --out directory
REPORTS = {
    ("space", "describe"): ("describe.json",),
    ("ineq", "check"): ("ineq_report.json",),
    ("flow", "run"): ("flow_series.csv", "flow_summary.json"),
    ("identities", "run"): ("identities.json",),
}


def bank_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def command_key(group: str, action: str) -> str:
    return f"{group}_{action}"


def argv(group: str, action: str, config: str, out_dir: str, seed: int) -> list:
    args = [group, action, "--config", config, "--out", out_dir]
    if (group, action) == ("ineq", "check"):
        args += ["--seed", str(bank_seed(seed))]
    return args

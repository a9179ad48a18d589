"""Checks on the benchmark itself: tracing must not change what the program
writes, and no tracer wrapper may survive into a timing run.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
import types

import pytest

import run
import tracer as tracing

sys.path.insert(0, run.SRC)

import scipy.sparse.linalg  # noqa: E402

import finslergamma.calculus as calculus  # noqa: E402
import finslergamma.heatflow as heatflow  # noqa: E402
import finslergamma.inequalities as inequalities  # noqa: E402
import finslergamma.norms as norms  # noqa: E402


def _originals():
    return {
        "check_poincare": inequalities.check_poincare,
        "effective_K": inequalities.effective_K,
        "gradient_kink_mask": heatflow.gradient_kink_mask,
        "step": heatflow.step,
        "laplacian": vars(calculus.DiffOperators)["laplacian"],
        "init": vars(calculus.DiffOperators)["__init__"],
        "dual": vars(norms.RandersNorm)["dual_sq_values"],
    }


@pytest.mark.parametrize("workload", ["suite-1d", "flow-asym1d"])
def test_traced_pass_writes_identical_reports_and_unwraps(workload):
    before = _originals()
    runner = run.Runner(workload, seed=5)
    runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.surviving_wrappers()
        runner.run_pass(tracer)
    finally:
        tracer.remove()
    numbers, spans = tracer.end_pass()

    assert runner.failed == 0, runner.failures
    assert not runner.problems
    assert len(runner.first) == len(runner.commands)   # both passes matched
    assert tracing.surviving_wrappers() == []
    assert _originals() == before
    assert heatflow.spla is scipy.sparse.linalg
    assert spans and numbers["calculus.differential.calls"] > 0
    if workload == "flow-asym1d":
        assert numbers["heatflow.step.calls"] == 800
        assert numbers["heatflow.newton_iters"] > 0
        assert numbers["heatflow.solve.calls"] == numbers["heatflow.newton_iters"]
        assert numbers["heatflow.errors"] == 0


def test_timing_run_refuses_a_surviving_wrapper():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError, match="wrappers present"):
            run.run_untraced(types.SimpleNamespace(seconds=0), run.Runner("suite-1d", 0))
    finally:
        tracer.remove()
    assert tracing.surviving_wrappers() == []


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._wrap("inequalities.check_nash", lambda: inner())
    inner = tracer._wrap("calculus.gamma2", lambda: sum(range(20000)))
    outer()
    numbers, spans = tracer.end_pass()
    assert [s[0] for s in spans] == ["inequalities.check_nash", "calculus.gamma2"]
    assert spans[1][3] == 0
    total = spans[0][2] - spans[0][1]
    assert numbers["inequalities.check_nash.self_s"] == pytest.approx(
        total - (spans[1][2] - spans[1][1]))
    assert numbers["calculus.gamma2.calls"] == 1

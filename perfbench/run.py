"""Benchmark of the ``fg`` commands, run in-process from the root of a checkout.

    python3 perfbench/run.py --workload randers2d --seed 0 --seconds 20 --trace 0

One process drives ``finslergamma.cli.main`` one command at a time (a closed
loop with one client).  A warm-up pass runs first; then whole passes over
the workload's commands repeat until ``--seconds`` have elapsed.  Every
report is checked (see ``outputs.py``).  The last line of standard output
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from the outside-in tracer with ``--trace 1``.  The lines before it
give the same numbers for people, plus sample counts, output checks
against ``reference.json`` and the environment stamp.  The exit code is 0
when every invocation succeeded and every output invariant held.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import outputs
import tracer as tracing
from workloads import REPORTS, WORKLOADS, argv, bank_seed, command_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")

#: fresh interpreters timed per run for setup_s, each paired with one
#: yardstick start (after one warm-up pair)
SETUP_REPEATS = 4
SETUP_SCRIPT = ("import sys\nsys.path.insert(0, 'src')\n"
                "from finslergamma.cli import load_config\n"
                "for path in sys.argv[1:]:\n    load_config(path)\n")
#: The yardstick for set-up: a fresh interpreter that imports the
#: third-party modules the package imports, which is most of what set-up
#: does.  The VM the baseline was recorded on changes speed by itself (the
#: same start took 0.6 s or 1.1 s a few minutes apart), so each set-up start
#: is divided by the yardstick start that follows it and multiplied by the
#: yardstick's typical time there, YARDSTICK_S.  Work the package adds at
#: import time, or an import it drops, still shows in the ratio.
YARDSTICK = "import numpy, scipy.sparse, scipy.sparse.linalg, scipy.optimize"
YARDSTICK_S = 0.75

PERCENTILES = (99, 95, 90, 75, 50)


def parse_args(args=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(args)


def missing_inputs(workload: str) -> list:
    needed = [os.path.join("src", "finslergamma", "cli.py")]
    needed += [cfg for _, _, cfg in WORKLOADS[workload][1]]
    return [p for p in dict.fromkeys(needed) if not os.path.isfile(os.path.join(ROOT, p))]


# ----------------------------------------------------------------------
# running passes

class Runner:
    """Runs passes of one workload and checks every report they write."""

    def __init__(self, workload: str, seed: int):
        import finslergamma.cli
        self._cli = finslergamma.cli      # main is looked up per call, as traced
        self.workload = workload
        self.seed = seed
        self.commands = WORKLOADS[workload][1]
        self.configs = {}
        for _, _, cfg in self.commands:
            with open(os.path.join(ROOT, cfg)) as fh:
                self.configs[cfg] = json.load(fh)
        self.out_dir = os.path.join(OUT_ROOT, workload)
        os.makedirs(self.out_dir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures = []        # why invocations failed
        self.problems = []        # broken output invariants
        self.first = {}           # command key -> Outcome of the first pass
        self.output_bytes = 0     # bytes written by the latest pass

    def run_pass(self, tracer=None) -> dict:
        """One pass over the workload's commands; returns seconds per command."""
        times = {}
        self.output_bytes = 0
        for group, action, cfg in self.commands:
            key = command_key(group, action)
            outputs.clear(group, action, self.out_dir)
            args = argv(group, action, os.path.join(ROOT, cfg), self.out_dir, self.seed)
            if tracer is not None:
                tracer.begin_command()
            sink = io.StringIO()
            code, error = None, None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self._cli.main(args)
            except (Exception, SystemExit) as exc:  # escaped main: a failed invocation
                error = f"{type(exc).__name__}: {exc}"
            times[key] = time.perf_counter() - start
            self.attempted += 1
            self._account(group, action, cfg, key, code, error)
        return times

    def _account(self, group, action, cfg, key, code, error):
        reason = error
        outcome = None
        if reason is None and code not in (0, 1):
            reason = f"exit code {code}"
        if reason is None:
            outcome = outputs.inspect(group, action, self.configs[cfg], self.out_dir,
                                      code, bank_seed(self.seed))
            reason = outcome.unreadable or None
        if reason is None:
            first = self.first.setdefault(key, outcome)
            if first.digests != outcome.digests:
                reason = "report bytes differ from the first pass"
            for problem in outcome.problems:
                if problem not in self.problems:
                    self.problems.append(problem)
            self.output_bytes += outcome.output_bytes
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{group} {action}: {reason}")

    def compare_reference(self, reference: dict) -> dict:
        """Verdicts and report hashes of the first pass against the reference."""
        verdicts = "".join(o.verdicts for o in self.first.values())
        out = {"verdicts_total": len(verdicts), "verdicts_failed": verdicts.count("F"),
               "verdicts_changed": None, "outputs_changed": None}
        entry = reference.get(self.workload, {}).get(reference_key(self.workload, self.seed))
        if entry is None or len(self.first) != len(self.commands):
            return out
        changed = outputs_changed = 0
        for key, outcome in self.first.items():
            ref_v = entry["verdicts"].get(key, "")
            changed += sum(a != b for a, b in zip(ref_v, outcome.verdicts))
            changed += abs(len(ref_v) - len(outcome.verdicts))
            ref_d = entry["digests"].get(key, {})
            outputs_changed += sum(ref_d.get(name) != digest
                                   for name, digest in outcome.digests.items())
        out["verdicts_changed"] = changed
        out["outputs_changed"] = outputs_changed
        return out

    def reference_entry(self) -> dict:
        return {"verdicts": {k: o.verdicts for k, o in self.first.items()},
                "digests": {k: o.digests for k, o in self.first.items()}}


def uses_seed(workload: str) -> bool:
    return any((g, a) == ("ineq", "check") for g, a, _ in WORKLOADS[workload][1])


def reference_key(workload: str, seed: int) -> str:
    return str(bank_seed(seed)) if uses_seed(workload) else "all"


def load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)["workloads"]
    except FileNotFoundError:
        return {}


# ----------------------------------------------------------------------
# measurements

def measure_setup(configs) -> list:
    """Wall time of fresh interpreters that import the CLI and load the
    configs, raw and scaled by the yardstick; the first pair of starts only
    warms the file cache and bytecode."""
    cmd = [sys.executable, "-c", SETUP_SCRIPT] + [os.path.join(ROOT, c) for c in configs]
    yardstick = [sys.executable, "-c", YARDSTICK]
    # an installed fg imports from bytecode; let the warm-up start write it
    # whatever the caller's environment says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def start(argv_):
        begin = time.perf_counter()
        subprocess.run(argv_, cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - begin

    samples = []
    for i in range(SETUP_REPEATS + 1):
        raw, ref = start(cmd), start(yardstick)
        if i:
            samples.append((raw, raw * YARDSTICK_S / ref))
    return samples


def tail_percentile(samples):
    """Highest of PERCENTILES with at least ten samples beyond it."""
    n = len(samples)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "finslergamma")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def stamp(args, counts: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "bank_seed": bank_seed(args.seed) if uses_seed(args.workload) else None,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


def median_times(passes: list) -> dict:
    keys = passes[0].keys()
    return {k: statistics.median(p[k] for p in passes) for k in keys}


# ----------------------------------------------------------------------

def require_untraced():
    stray = tracing.surviving_wrappers()
    if stray:
        raise RuntimeError(f"tracer wrappers present in a timing run: {stray}")


def run_untraced(args, runner: Runner):
    require_untraced()
    configs = sorted({cfg for _, _, cfg in runner.commands})
    setup = measure_setup(configs)
    runner.run_pass()                                  # warm-up
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(runner.run_pass())
    walls = [sum(p.values()) for p in passes]
    pct, pct_value = tail_percentile(walls)
    per_cmd = median_times(passes)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(s[1] for s in setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "passes": len(passes), "warmup_passes": 1, "setup_samples": len(setup),
        "wall_s_percentile": pct, "wall_s_at_percentile": pct_value,
        "commands_median_s": {f"{k}_s": v for k, v in per_cmd.items()},
        "setup_s_raw": statistics.median(s[0] for s in setup),
    }
    human = [f"wall_s = {metrics['wall_s'][0]:.6g} s (median of {len(passes)} passes"
             + (f"; p{pct} = {pct_value:.6g} s" if pct else
                "; no percentile has ten samples beyond it") + ")"]
    human += [f"{k}_s = {v:.6g} s (median per pass)" for k, v in per_cmd.items()]
    human += [f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(setup)} fresh "
              f"interpreters, scaled by the yardstick; raw {extra['setup_s_raw']:.6g} s)",
              f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB"]
    return metrics, extra, human


def run_traced(args, runner: Runner):
    runner.run_pass()                                  # warm-up
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    spans = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        require_untraced()
        plain.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(sum(runner.run_pass(tracer).values()))
        finally:
            tracer.remove()
        numbers, spans = tracer.end_pass()
        numbers["cli.output_bytes"] = runner.output_bytes
        layers.append(numbers)
    tracing.write_spans(os.path.join(runner.out_dir, "spans.jsonl"), spans)
    metrics = {}
    for name in layers[0]:
        value = statistics.median(d[name] for d in layers)
        metrics[name] = (value, unit_of(name))
    # per-command medians of the untraced passes; 0 for commands the
    # workload does not run
    per_cmd = median_times(plain)
    for group, action in REPORTS:
        key = command_key(group, action)
        metrics[f"cmd.{key}_s"] = (per_cmd.get(key, 0.0), "s")
    plain = [sum(p.values()) for p in plain]
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    extra = {"passes": len(plain) + len(traced), "untraced_passes": len(plain),
             "traced_passes": len(traced), "warmup_passes": 1,
             "untraced_wall_s": statistics.median(plain),
             "traced_wall_s": statistics.median(traced), "spans_per_pass": len(spans)}
    human = [f"traced wall {extra['traced_wall_s']:.6g} s vs untraced "
             f"{extra['untraced_wall_s']:.6g} s: overhead {overhead:.6g} s "
             f"({len(traced)} traced, {len(plain)} untraced passes)"]
    top = sorted(((k, v[0]) for k, v in metrics.items() if k.endswith(".self_s")),
                 key=lambda kv: -kv[1])[:8]
    human += [f"  {k} = {v:.6g} s" for k, v in top]
    return metrics, extra, human


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def main(argv_=None) -> int:
    args = parse_args(argv_)
    missing = missing_inputs(args.workload)
    if missing:
        print(f"perfbench: not a finslergamma checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        metrics, extra, human = run_traced(args, runner)
    else:
        metrics, extra, human = run_untraced(args, runner)

    checks = runner.compare_reference(load_reference())
    correct = runner.failed == 0 and not runner.problems
    print(f"workload {args.workload}: {WORKLOADS[args.workload][0]}")
    for line in human:
        print(line)
    print(f"failed_ratio = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} failed of {runner.attempted} invocations)")
    print("output checks: " + ", ".join(f"{k} = {v}" for k, v in checks.items()))
    for line in runner.failures[:10] + runner.problems[:10]:
        print(f"FAILED {line}")
    result = {"stamp": stamp(args, extra), "output_checks": checks,
              "failures": runner.failures[:10], "problems": runner.problems[:10]}
    print("RESULT " + json.dumps(result, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

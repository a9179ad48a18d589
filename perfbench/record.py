"""Record one entry of the bench trajectory.

    python3 perfbench/record.py --out perfbench/baseline.json

Runs ``run.py`` on every workload, once per seed in ``SEEDS`` with tracing
off and once more with tracing on, each run as long as ``run_seconds`` in
``BENCHMARK.json``.  Writes every run's numbers together with the median,
the quartiles and the quartile spread (as a share of the median) of each
end-to-end metric, and of the raw set-up time beside them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    final = json.loads(lines[-1])
    result = next(json.loads(line[7:]) for line in lines if line.startswith("RESULT "))
    metrics = {k: v["value"] for k, v in final["metrics"].items()}
    raw = {"setup_s_raw": result["stamp"]["setup_s_raw"]} if not trace else {}
    return {"seed": seed, "attempted": final["attempted"], "failed": final["failed"],
            "metrics": metrics, "raw": raw, "output_checks": result["output_checks"],
            "stamp": result["stamp"]}


def summarize(runs: list, field: str) -> dict:
    out = {}
    for name in runs[0][field]:
        values = [r[field][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {"seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", flush=True)
        traced = run_once(workload, SEEDS[0], seconds, 1)
        doc["workloads"][workload] = {"summary": summarize(runs, "metrics"),
                                      "raw_summary": summarize(runs, "raw"),
                                      "runs": runs, "traced": traced}
        for name, s in doc["workloads"][workload]["summary"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}",
                  flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

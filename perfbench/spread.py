"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py [--workloads w1,w2] [--seeds 1-10] [--trace 0]
        [--json PATH]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
with ``run_seconds`` from BENCHMARK.json. For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound; ``--json`` writes
the same summary with every run's values and environment.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{args.trace}.json")) as f:
                env = json.load(f)["environment"]
            runs.append({"seed": seed, "result": result, "environment": env})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if bounds.get(k) is not None)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values, bounds.get(name))
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        summary["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "environment": runs[0]["environment"],
            "metrics": metrics,
            "seeds": [r["seed"] for r in runs],
        }
        for name, m in metrics.items():
            if m["bound"] is None:
                continue
            flag = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {name:<16}median {m['median']:<12.5g} q1 {m['q1']:<12.5g} q3 {m['q3']:<12.5g}"
                  f"spread {m['spread']:.4f} bound {m['bound']} {flag}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

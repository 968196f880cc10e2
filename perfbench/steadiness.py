"""Measures how steady the benchmark is: one batch of runs per call.

Run from the repository root:

    python3 perfbench/steadiness.py [--out FILE]

It runs every workload BENCHMARK.json names ten times, with seeds 1 to
10, through the command and run length BENCHMARK.json gives. For each
end-to-end metric it records the median, the quartiles
(statistics.quantiles(n=4)) and the spread: the distance between the
first and third quartile over the median, and flags spreads above a
third of the metric's bound. The batch goes to --out;
perfbench/steadiness.json holds two such batches.
"""

import argparse
import json
import statistics
import subprocess
import sys


RUNS = 10
FIRST_SEED = 1
# DEFAULT_SEED is the seed to quote figures at. HELDOUT_SEED was never
# used while the benchmark was tuned: a later claim of a gain must also
# hold on it.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=".bench_build/steadiness-batch.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))

    result = {
        "runs": RUNS,
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "workloads": {},
    }
    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            rep = json.loads(last)
            if out.returncode != 0 or not rep.get("correct"):
                print(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                ok = False
                continue
            for k, v in rep["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in sorted(rep["metrics"].items())), flush=True)
        rows = {}
        for k, xs in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else 0.0
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                       "bound": bounds.get(k)}
            flag = ""
            if bounds.get(k) is not None and spread > bounds[k] / 3:
                flag = "  (above a third of the bound)"
            print(f"{name} {k}: median {med:.5g} spread {spread:.4f} bound {bounds.get(k)}{flag}")
        result["workloads"][name] = rows
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

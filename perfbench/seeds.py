"""Run the benchmark over several seeds and summarise each end-to-end metric
by its median, quartiles and spread (interquartile range over median).

Run from the repository root:

    python3 perfbench/seeds.py --workloads decode_greedy --seeds 1..5
    python3 perfbench/seeds.py --seeds 1..10 --write perfbench/baseline.json

Each run is `perfbench/run.py --workload W --seed S --seconds N --trace 0`
in its own process, one after the other. The spread is what BENCHMARK.json's
bounds are checked against: each metric's spread should stay below a third
of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(spec: str) -> list:
    lo, _, hi = spec.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    summary = {"seconds": args.seconds, "machine": None, "workloads": {}}
    worst = 0
    for name in args.workloads.split(","):
        values, runs = {}, []
        for seed in seed_range(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit code {proc.returncode}")
                worst = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            worst = max(worst, 0 if result["correct"] else 1)
            with open(os.path.join(ROOT, ".perfbench_out",
                                   f"{name}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                summary["machine"] = json.load(fh)["machine"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "wall_s": time.perf_counter() - start})
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        summary["workloads"][name] = {"runs": runs, "metrics": {}}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary["workloads"][name]["metrics"][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "values": vals}
            flag = "" if spread < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:14s} {metric:12s} median {median:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} "
                  f"(bound {bounds[metric]}){flag}", flush=True)
        bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
        print(f"{name:14s} {len(runs)} runs, incorrect or failed on seeds "
              f"{bad or 'none'}", flush=True)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of retline: one client in one process, BLAS pinned
to one thread, each call issued only after the previous one returned.

Run from the repository root:

    python3 perfbench/run.py --workload decode_greedy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` times the workload for `--seconds` and reports the end-to-end
metrics; `--trace 1` runs a fixed amount of the workload without and with
spans and reports the per-layer metrics (perfbench/NOTES.md lists both).
Either way the correctness checks run and the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--workload all` runs every workload in its own process, so each peak RSS
reflects one workload. Results, the machine and the spans go to
.perfbench_out/ under the repository root.
"""

import os

# pinned in this process's own environment before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RETLINE_CONFIG", None)  # the CLI would read a config from it

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOAD_NAMES = tuple(w["name"] for w in json.load(_fh)["workloads"])


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
        worst = max(worst, 0 if ok else 1, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one cold set-up into the given directory (see harness.py)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # measure the checkout's own source, never an installed copy
    if not os.path.isfile(os.path.join(SRC, "retline", "__init__.py")):
        print(f"error: no retline package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    if args.setup_only:
        return harness.setup_only(args.workload, args.seed, args.setup_only)
    return harness.run_workload(args.workload, args.seed, args.seconds,
                                args.trace, ROOT)


if __name__ == "__main__":
    sys.exit(main())

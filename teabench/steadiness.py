"""Run one workload over several seeds and record how steady it is.

    python3 teabench/steadiness.py --workload service-replay \\
        --seeds 1-10 --out teabench/steadiness/set-a.json

For every end-to-end metric: the per-run values, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound in BENCHMARK.json.
Runs are sequential; each is one ``teabench/run.py`` process.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values, bound):
    middle = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": middle, "q1": None,
                "q3": None, "spread": None, "bound": bound}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle, "bound": bound}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="teabench/steadiness.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--out", help="write the record here (JSON)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.perf_counter()
        done = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed",
                               str(seed), "--seconds",
                               str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - started
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            raise SystemExit("seed %d failed with exit code %d"
                             % (seed, done.returncode))
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": wall, "result": result})
        print("seed %d: %.1f s, correct=%s" % (seed, wall,
                                               result["correct"]),
              file=sys.stderr, flush=True)

    record = {"workload": args.workload, "runs": runs, "metrics": {}}
    for name, bound in bounds.items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        record["metrics"][name] = summarize(values, bound)
        entry = record["metrics"][name]
        if entry["spread"] is None:
            print("%-14s value %12.4f" % (name, entry["median"]))
            continue
        print("%-14s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f "
              "(bound %.2f)" % (name, entry["median"], entry["q1"],
                                entry["q3"], entry["spread"], bound))
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

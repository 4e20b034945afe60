"""CI check for the parallel-harness smoke job.

Reads the artifacts the preceding workflow steps produced:

- ``serial.txt``   — serial, cache-disabled report (the reference) +
  ``serial.json`` metrics
- ``parallel.txt`` — cold ``--jobs 2`` report + ``cold.json`` metrics
- ``warm.txt``     — warm rerun report + ``warm.json`` metrics

and asserts the parallel harness's three contracts:

1. every report is byte-identical to the serial reference;
2. the warm rerun served >= 90 % of its stages from the persistent
   cache (it should be 100 %: zero fresh ``harness.stage_runs``);
3. the interpreter ran once per benchmark (``harness.executions``) in
   the serial and the cold sharded run, and not at all in the warm one.
"""

import json
import sys

N_BENCHMARKS = 4
N_STAGES = 10  # len(repro.harness.runner.STAGES)


def counters(path):
    with open(path) as handle:
        return json.load(handle)["metrics"]["counters"]


def main():
    serial = open("serial.txt").read()
    parallel = open("parallel.txt").read()
    warm = open("warm.txt").read()
    if parallel != serial:
        sys.exit("FAIL: cold --jobs 2 report differs from the serial one")
    if warm != serial:
        sys.exit("FAIL: warm-cache report differs from the serial one")

    cold = counters("cold.json")
    hot = counters("warm.json")
    for path, expected in (("serial.json", N_BENCHMARKS),
                           ("cold.json", N_BENCHMARKS), ("warm.json", 0)):
        executions = counters(path).get("harness.executions")
        if executions != expected:
            sys.exit("FAIL: %s records %s interpreter executions, "
                     "expected %d" % (path, executions, expected))
    total = N_BENCHMARKS * N_STAGES
    if cold.get("harness.stage_runs", 0) != total:
        sys.exit("FAIL: cold run executed %s fresh stages, expected %d"
                 % (cold.get("harness.stage_runs"), total))

    fresh = hot.get("harness.stage_runs", 0)
    disk_hits = hot.get("harness.cache.disk_hits", 0)
    if fresh > 0.1 * total:
        sys.exit("FAIL: warm rerun re-executed %d of %d stages (>10%%)"
                 % (fresh, total))
    if disk_hits < 0.9 * total:
        sys.exit("FAIL: warm rerun had only %d disk hits of %d stages"
                 % (disk_hits, total))

    print("OK: reports byte-identical; one execution per benchmark; "
          "warm rerun: %d fresh stage runs, %d/%d disk hits"
          % (fresh, disk_hits, total))


if __name__ == "__main__":
    main()

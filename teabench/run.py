"""Run one benchmark workload and print its result as a JSON line.

    python3 teabench/run.py --workload harness-tables --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
separate traced run and prints the per-layer metrics.  The work of a run
is fixed by the workload and ``--size``; ``--seconds`` is accepted for
the runner's interface and does not change it.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 only when every correctness gate held and no
operation failed.  See teabench/README.md.
"""

import argparse
import json
import sys

import common
import ladder

WORKLOADS = {
    "harness-tables": "harness_tables",
    "service-replay": "service_replay",
    "snapshot-fleet": "snapshot_fleet",
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="teabench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long self-test of the same "
                             "code paths")
    parser.add_argument("--inject-fault", metavar="GATE",
                        help="corrupt the data one correctness gate checks")
    args = parser.parse_args(argv)

    try:
        common.import_repro()
    except common.MissingProgram as error:
        common.log("error: %s" % error)
        return 2
    module = __import__(WORKLOADS[args.workload])
    gates = module.GATES + ladder.GATES
    if args.inject_fault and args.inject_fault not in gates:
        parser.error("%s has gates %s" % (args.workload, ", ".join(gates)))
    ctx = common.Context(args.workload, args.seed, args.size,
                         bool(args.trace), args.inject_fault)
    with ctx:
        module.run(ctx)
    print(json.dumps(ctx.result(), sort_keys=True), flush=True)
    return 0 if ctx.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at tiny size.

    python3 teabench/selftest.py

Checks, for every workload:

- ``--trace 0`` prints exactly the end-to-end metrics of BENCHMARK.json,
  with their units, and ``--trace 1`` exactly the per-layer metrics;
- ``--inject-fault <gate>`` makes the run exit non-zero with
  ``correct: false``, for every gate, untraced and traced;
- a copy of the benchmark without ``src/repro`` exits non-zero without
  printing a result.

Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import ladder  # noqa: E402  (the benchmark's own modules)
import run  # noqa: E402


def invoke(spec, cwd, workload, *extra):
    done = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", str(spec["run_seconds"]),
                           "--size", "tiny"] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok, message):
        print("%s %s" % ("ok  " if ok else "FAIL", message), flush=True)
        if not ok:
            problems.append(message)

    for workload, module_name in sorted(run.WORKLOADS.items()):
        for trace, names in sorted(expected.items()):
            code, result, stderr = invoke(spec, ROOT, workload,
                                          "--trace", trace)
            got = ({name: value["unit"]
                    for name, value in result["metrics"].items()}
                   if result else None)
            check(code == 0 and result and result["correct"]
                  and result["attempted"] >= 1 and got == names,
                  "%s --trace %s: exit %d, metrics and units as declared"
                  % (workload, trace, code))
            if got is not None and got != names:
                print("     missing %s, extra %s"
                      % (sorted(set(names) - set(got)),
                         sorted(set(got) - set(names))))
        # Every gate runs in the traced run too; the ladder's only there.
        for trace, gates in (("0", __import__(module_name).GATES),
                             ("1", __import__(module_name).GATES
                              + ladder.GATES)):
            for gate in gates:
                code, result, _ = invoke(spec, ROOT, workload, "--trace",
                                         trace, "--inject-fault", gate)
                check(code != 0 and result is not None
                      and result["correct"] is False,
                      "%s --trace %s: injected fault trips gate %s (exit %d)"
                      % (workload, trace, gate, code))

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        for workload in sorted(run.WORKLOADS):
            code, result, _ = invoke(spec, bare, workload, "--trace", "0")
            check(code != 0 and result is None,
                  "%s without src/repro: exit %d, no result printed"
                  % (workload, code))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

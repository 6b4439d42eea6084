#!/usr/bin/env python3
"""Self-test of the SubCoreSim benchmark, at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  1. every workload prints every end-to-end metric of BENCHMARK.json
     with its unit (--trace 0), and every per-layer metric with its unit
     plus a readable Chrome trace file (--trace 1), all jobs correct;
  2. a deliberately wrong pinned fingerprint makes the run fail
     (non-zero exit, `correct: false`);
  3. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run(args, cwd=ROOT, timeout=600):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, lines, result


def expect(cond, what, failures):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_metrics(result, wanted, label, failures):
    got = result["metrics"] if result else {}
    for m in wanted:
        entry = got.get(m["name"])
        expect(entry is not None and entry.get("unit") == m["unit"]
               and isinstance(entry.get("value"), (int, float)),
               "%s prints %s in %s" % (label, m["name"], m["unit"]),
               failures)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            label = "%s --trace %d" % (name, trace)
            proc, lines, result = run(["--workload", name, "--seed", "1",
                                       "--tiny", "--trace", str(trace)])
            expect(proc.returncode == 0 and result is not None
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   label + " exits 0 with every job correct", failures)
            check_metrics(result, wanted, label, failures)
            if trace:
                path = os.path.join(ROOT, ".bench_build", "traces",
                                    "%s-seed1.json" % name)
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    spans = [e for e in events if e.get("ph") == "X"]
                    ok = bool(spans) and all(
                        {"name", "ts", "dur", "tid"} <= e.keys()
                        and {"id", "parent", "job"} <= e["args"].keys()
                        for e in spans)
                except (OSError, ValueError, KeyError):
                    ok = False
                expect(ok, label + " writes a Chrome trace-event file",
                       failures)

    # A wrong pin must fail the run.  The tiny sim-mix round runs the
    # probe jobs, pb-sgemm/Baseline among them.
    os.makedirs(SCRATCH, exist_ok=True)
    pins = os.path.join(HERE, "pinned_fingerprints.txt")
    wrong = os.path.join(SCRATCH, "wrong_pins.txt")
    with open(pins) as f, open(wrong, "w") as out:
        for line in f:
            parts = line.split()
            if parts[:2] == ["sim-mix", "pb-sgemm/Baseline"]:
                fp = parts[2]
                parts[2] = ("0" if fp[0] != "0" else "1") + fp[1:]
                line = " ".join(parts) + "\n"
            out.write(line)
    proc, lines, result = run(["--workload", "sim-mix", "--seed", "1",
                               "--tiny", "--trace", "0", "--pins", wrong])
    expect(proc.returncode != 0 and result is not None
           and not result["correct"] and result["failed"] >= 1
           and any("pb-sgemm/Baseline" in l and "pinned" in l
                   for l in lines),
           "a wrong pinned fingerprint fails the run", failures)

    # Without the simulator sources there is nothing to build.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines, result = run(["--workload", "sim-mix", "--seed", "1",
                               "--trace", "0"], cwd=bare, timeout=180)
    expect(proc.returncode != 0 and result is None,
           "a directory without the sources exits non-zero, no result",
           failures)
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

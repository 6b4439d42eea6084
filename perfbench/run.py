#!/usr/bin/env python3
"""SubCoreSim benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 10 --trace 0

Builds the simulator and the perfbench binary from source into
`.bench_build/` (Release, first run only takes minutes), runs one
workload, and relays the binary's report.  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`).  A traced run also writes a Chrome trace-event file under
`.bench_build/traces/` and prints its tracing overhead against the
latest untraced run of the same workload.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim-mix", "sweep-ckpt", "farm-overlap")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure once and build the benchmark binary and the run-job worker."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("SubCoreSim sources (src/) not found next to perfbench/")
        return False
    # Compiler and program temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench", "scsim_cli"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def clear_stale_run_dirs(run_root):
    """Remove scratch dirs left by runs whose process is gone."""
    if not os.path.isdir(run_root):
        return
    for name in os.listdir(run_root):
        try:
            os.kill(int(name), 0)
            continue
        except (ValueError, ProcessLookupError):
            pass
        except PermissionError:
            continue
        shutil.rmtree(os.path.join(run_root, name), ignore_errors=True)


def overhead_lines(workload, traced_lines, results_dir):
    """Traced end-to-end numbers against the latest untraced run."""
    path = os.path.join(results_dir, workload + "-trace0.json")
    if not os.path.isfile(path):
        return ["tracing overhead: no untraced %s result yet; "
                "run with --trace 0 first" % workload]
    with open(path) as f:
        base = json.load(f)
    out = ["tracing overhead vs untraced run at seed %s:" % base["seed"]]
    for line in traced_lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "metric":
            continue
        name, value, unit = parts[1], float(parts[2]), parts[3]
        untraced = base["metrics"].get(name, {}).get("value")
        if untraced:
            out.append("overhead %-28s traced %.6g untraced %.6g %s "
                       "(%+.2f%%)" % (name, value, untraced, unit,
                                      100.0 * (value - untraced) / untraced))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small round (the self-test's size)")
    ap.add_argument("--pins", default=os.path.join(HERE,
                                                   "pinned_fingerprints.txt"),
                    help="pinned fingerprint table checked at seed 1")
    args = ap.parse_args()

    if not build():
        return 2
    os.chdir(ROOT)
    run_root = os.path.join(".bench_build", "run")
    clear_stale_run_dirs(run_root)
    results_dir = os.path.join(BUILD, "results")
    traces_dir = os.path.join(BUILD, "traces")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(traces_dir, exist_ok=True)
    work_dir = os.path.join(run_root, str(os.getpid()))
    trace_out = os.path.join(traces_dir, "%s-seed%d.json"
                             % (args.workload, args.seed))

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(BUILD, "tools", "scsim_cli"),
           "--work-dir", work_dir, "--pins", args.pins,
           "--trace-out", trace_out, "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    lines = []
    try:
        for line in child.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith("{"):
                print(line, end="", flush=True)
    finally:
        rc = child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)

    if not lines or not lines[-1].startswith("{"):
        log("perfbench exited %d without a result" % rc)
        return rc or 1
    result = json.loads(lines[-1])
    if args.trace:
        for line in overhead_lines(args.workload, lines, results_dir):
            print(line)
    elif rc == 0 and not args.tiny:
        saved = dict(result, seed=args.seed)
        with open(os.path.join(results_dir,
                               args.workload + "-trace0.json"), "w") as f:
            json.dump(saved, f)
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

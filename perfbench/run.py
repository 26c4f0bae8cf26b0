#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/bench.exe and
the tupelo CLI with dune into .bench_build/, writes scratch files under
.bench_build/perfbench-work/, and removes them when it is done.

With --trace 0 it times the workload's set-up several times (each in a
fresh process, from process start until the process is ready for the timed
phase) and reports the median as setup_s, then runs the timed phase. With
--trace 1 it runs the traced pass instead and reports the per-layer
metrics. Everything the benchmark process prints is passed through; the
last line is the result object, with exactly the metrics BENCHMARK.json
lists for the mode. The exit code is 0 when every output check passed, 1
when one failed, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("discover-mix", "serve-open", "migrate-csv")
SETUP_RUNS = 5  # set-ups timed per run: four probes plus the run's own
DEADLINE_S = 170.0  # the whole run, build excluded
BUILD_TIMEOUT_S = 850.0


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """An identifier for the code under test: the git commit when the
    checkout is a repository, otherwise a digest of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "n/a (not a git checkout; sources sha256 %s)" % h.hexdigest()[:16]


def build(root, build_dir):
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        out = subprocess.run(
            [dune, "build", "--root", root, "--build-dir", build_dir,
             "./perfbench/bench.exe", "./bin/tupelo_cli.exe"],
            cwd=root, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        die("build failed")
    return (os.path.join(build_dir, "default", "perfbench", "bench.exe"),
            os.path.join(build_dir, "default", "bin", "tupelo_cli.exe"))


class Child:
    """A benchmark process in its own process group, so that a timeout
    also stops whatever it started (the serve-open daemon)."""

    def __init__(self, argv, deadline):
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.timed_out = False
        self.watchdog = threading.Timer(max(0.0, deadline - self.t0), self.kill)
        self.watchdog.start()

    def lines(self):
        for line in self.proc.stdout:
            yield line.rstrip("\n")

    def wait(self):
        code = self.proc.wait()
        self.watchdog.cancel()
        if self.timed_out:
            die("timed out")
        return code

    def kill(self):
        self.timed_out = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        die("unknown workload %r (expected one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    if os.environ.get("TUPELO_FP_VERIFY", "").lower() in ("1", "true", "yes"):
        die("TUPELO_FP_VERIFY is on; paranoid mode re-runs every successor boxed")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[section]]

    build_dir = os.path.join(root, ".bench_build")
    bench, cli = build(root, build_dir)
    deadline = time.monotonic() + DEADLINE_S

    work = os.path.join(build_dir, "perfbench-work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        metrics_file = os.path.join(work, "metrics.txt")
        with open(metrics_file, "w") as f:
            f.writelines("%s %s\n" % nu for nu in names if nu[0] != "setup_s")
        common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work,
                  "--cli", cli, "--nproc", str(len(os.sched_getaffinity(0)))]

        if args.workload == "migrate-csv":
            gen = Child([bench, "gen"] + common, deadline)
            if gen.wait() != 0:
                die("input generation failed")

        setups = []

        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                probe = Child([bench, "setup"] + common, deadline)
                ready = False
                for line in probe.lines():
                    if line == "READY" and not ready:
                        setups.append(time.monotonic() - probe.t0)
                        ready = True
                if probe.wait() != 0 or not ready:
                    die("set-up failed")

        run = Child([bench, "run", "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--metrics", metrics_file, "--commit", source_id(root)] + common, deadline)
        result = None
        for line in run.lines():
            if line == "READY":
                if not args.trace:
                    setups.append(time.monotonic() - run.t0)
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, flush=True)
        code = run.wait()
        if code != 0 or result is None:
            die("the benchmark process failed (exit %d)" % code)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        setup_s = statistics.median(setups)
        print("  %-36s %16.4f s  (median of %d set-ups: %s)" % (
            "setup_s", setup_s, len(setups), ", ".join("%.4f" % s for s in setups)))
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    missing = [n for n, _ in names if n not in result["metrics"]]
    if missing:
        die("the result lacks " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n, _ in names}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end delivery benchmark: build from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on
the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root),
runs it from the repository root with all its threads on one CPU at a
time, checks that its result line carries exactly the metrics
`BENCHMARK.json` declares, and prints it as the last line of standard
output. Build output goes to standard error. With `--trace 1` the spans
are written to `<target dir>/perfbench/trace-<workload>-<seed>.tsv`.

All threads of the run share one CPU: client and server threads then
hand requests over on one CPU, which on a small shared virtual machine
is far steadier than waking an idle second CPU for every round trip.
Parallel paths inside the program (packing and sweep worker threads)
run with one thread as a result. Every `ROTATE_S` seconds the whole
run moves to the next CPU this process may use. On a shared host each
virtual CPU's speed drifts with its neighbours' load over a few
seconds, and partly independently of the other CPUs (on a 2-vCPU VM,
one-second seal throughputs of the two CPUs correlated at 0.06); a run
that visits every CPU in turn averages over them instead of reading one
CPU's luck for the whole window.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ROTATE_S = 0.5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def check_result(line, trace):
    """The result line must hold exactly the declared metrics."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    declared_path = ROOT / "BENCHMARK.json"
    if declared_path.exists():
        declared = json.loads(declared_path.read_text())
        section = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in declared[section]]
        if list(result["metrics"]) != names:
            raise ValueError(f"metrics differ from BENCHMARK.json {section}")


def rotate(pid, cpus, done):
    """Moves every thread of `pid` to the next of `cpus` each `ROTATE_S`
    seconds until `done` is set. Threads started between two moves
    inherit their creator's CPU, so all threads stay on one CPU."""
    turn = 0
    while len(cpus) > 1 and not done.wait(ROTATE_S):
        turn += 1
        cpu = cpus[turn % len(cpus)]
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            return
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass  # the thread has ended


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail("build failed")

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        out_dir = target / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(out_dir / f"trace-{args.workload}-{args.seed}.tsv")]
    cpus = sorted(os.sched_getaffinity(0))
    try:
        run = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True,
                               preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]}))
    except OSError as e:
        return fail(f"run failed: {e}")
    done = threading.Event()
    rotator = threading.Thread(target=rotate, args=(run.pid, cpus, done))
    rotator.start()
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.kill()
        run.wait()
        return fail("run timed out")
    except BaseException:
        run.kill()
        run.wait()
        raise
    finally:
        done.set()
        rotator.join()
    lines = stdout.splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"run exited with code {run.returncode}")
    try:
        check_result(lines[-1], args.trace == "1")
    except (ValueError, KeyError) as e:
        return fail(f"bad result line: {e}")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run one perfbench measurement.

Run from the repository root:

    python3 perfbench/run.py --workload lenet-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all            # every workload, a summary table
    python3 perfbench/run.py --self-test      # the benchmark's own unit tests

The first call configures and builds libshredder, shredder_serve and
perfbench_run into the build directory (`$CARGO_TARGET_DIR`, else
`.bench_build`); later calls rebuild only what changed. The last line of
standard output is the run's JSON result (see perfbench/README.md). The
script refuses to measure a Debug or sanitizer build directory.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
TARGETS = ["perfbench_run", "perfbench_tests", "shredder_serve"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def check_build_type(bdir):
    """Refuse a Debug or sanitizer build directory."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return
    values = {}
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            m = re.match(r"^(CMAKE_BUILD_TYPE|SHREDDER_SANITIZE):[A-Z]+=(.*)$", line)
            if m:
                values[m.group(1)] = m.group(2).strip()
    if values.get("CMAKE_BUILD_TYPE", "Release") != "Release" or values.get("SHREDDER_SANITIZE"):
        log(f"refusing to measure {bdir}: build type "
            f"'{values.get('CMAKE_BUILD_TYPE')}', sanitizer '{values.get('SHREDDER_SANITIZE', '')}'")
        sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no shredder sources next to {HERE}; nothing to measure")
        sys.exit(2)
    bdir = build_dir()
    check_build_type(bdir)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # Configure every time (about a second once cached): the target list
    # must follow perfbench/CMakeLists.txt even in an old build directory.
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "-j", jobs, "--target"] + TARGETS]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed")
            sys.exit(2)
    check_build_type(bdir)
    return bdir


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    h.update(open(os.path.join(ROOT, "CMakeLists.txt"), "rb").read())
    return "sources-sha256:" + h.hexdigest()[:16]


def cache_dir(bdir):
    """Where the trained master is kept between runs.

    The directory is named after a digest of perfbench_run, which links
    the library statically: a change to any code that trains the master
    gets a fresh directory, and the stale ones are removed.
    """
    h = hashlib.sha256()
    with open(os.path.join(bdir, "perfbench_run"), "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    root = os.path.join(bdir, "perfbench-cache")
    key = h.hexdigest()[:16]
    if os.path.isdir(root):
        for name in os.listdir(root):
            if name != key:
                path = os.path.join(root, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
    return os.path.join(root, key)


def run_once(bdir, workload, seed, seconds, trace):
    """Run one measurement; returns (exit code, result dict or None)."""
    cmd = [os.path.join(bdir, "perfbench_run"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(bdir, "perfbench-work"),
           "--cache-dir", cache_dir(bdir),
           "--commit", source_id()]
    # Own session: whatever perfbench_run starts is killed with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S}s")
        return 3, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in out.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        return proc.returncode or 3, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 3, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return proc.returncode or 3, None
    return proc.returncode, result


def check_metric_names(result, workload, trace):
    """The emitted metrics must be exactly those BENCHMARK.json lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if workload not in {w["name"] for w in spec["workloads"]}:
        return True
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if listed != got:
        log(f"metric set differs from BENCHMARK.json: missing {sorted(listed - got)}, "
            f"extra {sorted(got - listed)}")
        return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["lenet-mix", "lenet-replay", "noise-train"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload and print every end-to-end metric")
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's unit tests")
    args = p.parse_args()

    bdir = build()
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_tests")]).returncode)
    if args.all:
        code = 0
        for w in ("lenet-mix", "lenet-replay", "noise-train"):
            rc, result = run_once(bdir, w, args.seed, args.seconds, args.trace)
            if result is None:
                print(f"{w}: no result (exit {rc})")
                code = code or rc or 3
                continue
            print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
            code = code or rc
        sys.exit(code)
    if not args.workload:
        p.error("--workload is required (or --all / --self-test)")

    rc, result = run_once(bdir, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        log(f"{args.workload}: run produced no result (exit {rc})")
        sys.exit(rc or 3)
    if not check_metric_names(result, args.workload, args.trace):
        sys.exit(3)
    print(json.dumps(result))
    sys.exit(rc)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-m2000 --seed 1 --seconds 30 --trace 0

Workloads: sim-m2000, sim-m500-mp, serve-open (perfbench/README.md). The
first run configures and builds perfbench/ -- the libraries under src/ plus
the benchmark binary -- into $CARGO_TARGET_DIR (default .bench_build) with CMake;
later runs only let the build check that it is up to date. Build output goes
to stderr. The benchmark binary then prints a provenance line and, as the last
line of stdout, the JSON result. Exits non-zero, with no result, on a bad
command line, a failed build, or a failed correctness check.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("sim-m2000", "sim-m500-mp", "serve-open")
VALUED = ("--workload", "--seed", "--seconds", "--trace", "--scale")
FLAGS = ("--perturb-pin",)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    """Strict: known flags only, each once, with well-formed values."""
    args = {}
    flags = []
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in FLAGS:
            flags.append(flag)
            i += 1
            continue
        if flag not in VALUED:
            fail("unknown argument '%s'" % flag)
        if flag in args:
            fail("%s given twice" % flag)
        if i + 1 >= len(argv):
            fail("%s needs a value" % flag)
        args[flag] = argv[i + 1]
        i += 2
    for required in ("--workload", "--seed", "--seconds", "--trace"):
        if required not in args:
            fail("missing " + required)
    if args["--workload"] not in WORKLOADS:
        fail("unknown workload '%s' (%s)" % (args["--workload"], ", ".join(WORKLOADS)))
    seed = args["--seed"]
    if not (seed.isdigit() and seed.isascii() and int(seed) < 2**64):
        fail("--seed must be an unsigned integer, got '%s'" % seed)
    seconds = args["--seconds"]
    if not (seconds.isdigit() and seconds.isascii() and 1 <= int(seconds) <= 3600):
        fail("--seconds must be an integer in [1, 3600], got '%s'" % seconds)
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1, got '%s'" % args["--trace"])
    if args.get("--scale", "full") not in ("full", "tiny"):
        fail("--scale must be full or tiny, got '%s'" % args["--scale"])
    return args, flags


def source_id(root):
    """The commit when the tree is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True, timeout=30)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(root, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_dir, env):
    """Configures once, then builds the benchmark binary; serialised by a lock file."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target", "adpad_perfbench", "-j", jobs])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
            if result.returncode != 0:
                fail("build step failed: " + " ".join(step), code=1)
    return os.path.join(build_dir, "adpad_perfbench")


def main():
    args, flags = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(target, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    binary = build(root, os.path.join(target, "perfbench"), env)
    command = [binary, "--work-dir", os.path.join(target, "run"),
               "--spec", os.path.join(root, "BENCHMARK.json"), "--commit", source_id(root)]
    for flag, value in args.items():
        command += [flag, value]
    command += flags
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

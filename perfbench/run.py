#!/usr/bin/env python3
"""Build bench_fsmoe from this checkout and run one workload.

    python3 perfbench/run.py --workload sweep-cold --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds
the fsmoe library and the harness (Release) under .bench_build/; later
calls only re-check the build. The harness prints one line per metric
and, as its last line, a JSON object with the keys correct, attempted,
failed and metrics. Arguments this script does not know (for example
--out FILE) are passed to the harness unchanged. Exits non-zero, without
a result line, when the library sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    # The benchmark driver names the build-output directory in
    # CARGO_TARGET_DIR; honour it for this CMake build too.
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(os.path.join(ROOT, out)), "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; stdout stays for results."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no fsmoe sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"])
        if rc != 0:
            return rc
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", bdir, "--target", "bench_fsmoe",
                      "bench_compare", "-j", jobs])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, rest = p.parse_known_args()

    bdir = build_dir()
    rc = build(bdir)
    if rc != 0:
        print("run.py: build failed (%d)" % rc, file=sys.stderr)
        return rc
    cmd = [os.path.join(bdir, "bench_fsmoe"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "work"),
           "--baselines", os.path.join(ROOT, "bench", "baselines")]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd + rest).returncode


if __name__ == "__main__":
    sys.exit(main())

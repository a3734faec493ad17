#!/usr/bin/env python3
"""Build the benchmark (Release, from this checkout's sources) and run it.

    python3 perfbench/run.py --workload sweep-mixed --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench; build output goes to stderr so the last
stdout line is always the benchmark's JSON result. --self-check runs every
workload briefly, traced and untraced, and checks the results against
BENCHMARK.json (see README.md in this directory).
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-mixed", "fuzz-large", "stress")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under src/ to build")
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, out, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench")


def revision():
    """(commit, dirty) of the checkout, or 'unknown' outside a git tree."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
        return head.stdout.strip(), "1" if status.stdout.strip() else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def run(binary, args):
    commit, dirty = revision()
    return subprocess.run([binary] + args + ["--commit", commit,
                                             "--dirty", dirty],
                          capture_output=True, text=True)


def self_check(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            p = run(binary, ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", trace, "--quick"])
            where = "%s --trace %s" % (workload, trace)
            if p.returncode != 0:
                problems.append("%s: exit %d: %s" % (where, p.returncode,
                                                     p.stderr.strip()))
                continue
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if '"reference"' in line and '"match": false' in line:
                    problems.append("%s: digest mismatch %s" % (where, line))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" % (
                    where, result["correct"], result["failed"]))
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append("%s: missing %s" % (where, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        where, m["name"], got[m["name"]]["unit"], m["unit"]))
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append("%s: unlisted metrics %s" % (where,
                                                             sorted(extra)))
            if trace == "1" and workload == "sweep-mixed" and not problems:
                parts = sum(got[k]["value"] for k in
                            ("soc.construct_us", "exp.build_us", "soc.run_us"))
                total = got["exp.run_total_us"]["value"]
                if parts > total:
                    problems.append("sweep-mixed traced phases %.3f us exceed "
                                    "the per-run total %.3f us" % (parts, total))
            print("checked %s" % where, file=sys.stderr)
    for p in problems:
        print("FAIL " + p)
    print("self-check: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if sys.argv[1:] == ["--self-check"]:
        return self_check(binary)
    p = run(binary, sys.argv[1:])
    sys.stderr.write(p.stderr)
    sys.stdout.write(p.stdout)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())

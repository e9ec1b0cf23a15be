#!/usr/bin/env python3
"""The delinq repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 10 --trace 0

Builds the delinq libraries and the `delinq_perf` program from source into
.bench_build/perfbench, runs its self-test, checks the committed
reference (perfbench/reference.tsv) against the simulator goldens pinned in
tests/SimGoldenTest.cpp, then runs one workload in its own process. The last
line of stdout is the JSON result; everything else goes to stderr.

`--record` rebuilds and prints a fresh reference instead (for a deliberate
semantic change: review the diff before committing it).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "delinq_perf")
REFERENCE = os.path.join(HERE, "reference.tsv")
GOLDEN = os.path.join(ROOT, "tests", "SimGoldenTest.cpp")
WORKLOADS = ["tables-cold", "sweep-prefetch", "static-analyze", "warm-replay"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def workers():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: delinq sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(workers())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build step failed: " + " ".join(cmd))
            return False
    return True


def digest_fields(digest):
    """'run halt=0 exit=0 ... | eval ...' -> {'halt': '0', ...} of the run."""
    run = digest.split(" | ")[0]
    return dict(tok.split("=", 1) for tok in run.split()[1:] if "=" in tok)


def check_reference():
    """Problems with the committed reference, as messages (empty = sound)."""
    rows = {}
    with open(REFERENCE) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            workload, key, digest = line.rstrip("\n").split("\t")
            rows.setdefault(workload, {})[key] = digest
    problems = [w + ": no reference rows" for w in WORKLOADS if w not in rows]
    tables = rows.get("tables-cold", {})

    # The -O0 and -O1 compiles of one program must print the same output.
    for key, digest in tables.items():
        name, inp, opt = key.split("/")
        if opt == "O0":
            other = tables.get("%s/%s/O1" % (name, inp))
            if other is None or \
                    digest_fields(other)["outh"] != digest_fields(digest)["outh"]:
                problems.append("%s/%s: -O0 and -O1 outputs differ" % (name, inp))

    # Input1 rows against the simulator goldens (programs that exit under
    # the goldens' 20M-instruction cap run identically under the Driver's).
    with open(GOLDEN) as f:
        golden = f.read()
    row = re.compile(r'\{"(\w+)", (\d), (\d), (-?\d+), (\d+)ull, (\d+)ull, '
                     r'(\d+)ull, (\d+)ull, 0x([0-9a-f]+)ull, 0x([0-9a-f]+)ull, '
                     r'0x([0-9a-f]+)ull\}')
    checked = 0
    for m in row.finditer(golden):
        name, opt, halt = m.group(1), m.group(2), int(m.group(3))
        if halt != 0:
            continue
        digest = tables.get("%s/input1/O%s" % (name, opt))
        if digest is None:
            problems.append("%s -O%s: golden row has no reference row" % (name, opt))
            continue
        got = digest_fields(digest)
        want = {"halt": halt, "exit": int(m.group(4)), "instrs": int(m.group(5)),
                "acc": int(m.group(6)), "lmiss": int(m.group(7)),
                "smiss": int(m.group(8)), "exech": int(m.group(9), 16),
                "missh": int(m.group(10), 16), "outh": int(m.group(11), 16)}
        for field, value in want.items():
            base = 16 if field.endswith("h") else 10
            if int(got[field], base) != value:
                problems.append("%s -O%s: %s differs from the golden" %
                                (name, opt, field))
        checked += 1
    if checked == 0:
        problems.append("no golden rows found in " + GOLDEN)
    log("reference: %d golden rows cross-checked" % checked)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 2
    if subprocess.run([BINARY, "--self-test"]).returncode:
        log("error: benchmark self-test failed")
        return 1
    if args.record:
        return subprocess.run([BINARY, "--record", "--work-dir", WORK]).returncode

    problems = check_reference()
    for p in problems:
        log("FAIL reference: " + p)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE, "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("error: workload run timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("error: delinq_perf printed no result (exit %d)" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

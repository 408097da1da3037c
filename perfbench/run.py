#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload rf-1cg|pme-16r|svc-fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
simulator libraries plus the benchmark binary (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs only rebuild what changed. The water-box seed and the
fleet-generator seed are both derived from --seed and recorded in the
PROVENANCE line with the host thread count, nproc, build type and compiler.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics; per-layer metrics of a
layer the workload never enters read 0. A traced run also leaves its
host-clock spans in spans-<workload>.jsonl next to the binary. The exit code
is non-zero when the build fails or any correctness gate fails.

    python3 perfbench/run.py --workload W --runs N [--seed N] [--seconds S]

runs N seeds in a row and prints each end-to-end metric's median and
quartile spread (the stability report).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "swgmx_perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build the binary (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", BINARY, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, BINARY)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"], [w["name"] for w in spec["workloads"]]


def run_once(binary, bdir, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, parsed RESULT or None)."""
    scratch = os.path.join(bdir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SWGMX_")}
    env["SWGMX_THREADS"] = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = [binary, "--workload", workload,
           "--water-seed", str(seed + 1), "--fleet-seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=170)
        # Traced runs leave their host-clock spans behind; keep the last.
        for name in os.listdir(scratch):
            if name.startswith("spans-"):
                os.replace(os.path.join(scratch, name), os.path.join(bdir, name))
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within 170 s" % workload)
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            log(line)
    return proc.returncode, result


def select(result, declared, fill_missing):
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not fill_missing:
                raise RuntimeError("metric %s was not measured" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise RuntimeError("metric %s has unit %s, declared %s"
                               % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def stability(binary, bdir, args, end_to_end):
    values = {m["name"]: [] for m in end_to_end}
    for k in range(args.runs):
        code, result = run_once(binary, bdir, args.workload, args.seed + k,
                                args.seconds, False)
        if code != 0 or result is None or not result["correct"]:
            log("run with seed %d failed" % (args.seed + k))
            return 1
        for m in end_to_end:
            values[m["name"]].append(result["metrics"][m["name"]]["value"])
    print("stability of %s over %d seeds from %d:" % (args.workload, args.runs, args.seed))
    for m in end_to_end:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print("  %-24s median %-14.6g %-14s spread %.4f (bound %.2f)  %s"
              % (m["name"], med, m["unit"], spread, m["bound"],
                 " ".join("%.4g" % x for x in v)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=0,
                    help="stability report over this many seeds")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        end_to_end, per_layer, workloads = declared_metrics()
        if args.workload not in workloads:
            raise RuntimeError("unknown workload %s" % args.workload)
        bdir = build_dir()
        binary = build(bdir)
    except (OSError, RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        return 2

    if args.runs > 0:
        return stability(binary, bdir, args, end_to_end)

    code, result = run_once(binary, bdir, args.workload, args.seed,
                            args.seconds, bool(args.trace))
    if result is None:
        log("perfbench: %s printed no result (exit %d)" % (args.workload, code))
        return 1
    try:
        metrics = select(result, per_layer if args.trace else end_to_end,
                         fill_missing=bool(args.trace))
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

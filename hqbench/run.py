#!/usr/bin/env python3
"""The HerQules benchmark command.

Builds the hqbench program from this checkout's sources (into
.bench_build/, or $CARGO_TARGET_DIR when set), runs one workload and
prints every metric with its unit and sample count, the host
fingerprint, and, as the last line, one JSON object:

    {"correct": ..., "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}

Usage:
    python3 hqbench/run.py --workload stream|gate|program --seed N \
        --seconds S --trace 0|1 [--tiny] [--rounds N]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (ledger + traced run; spans go to .bench_out/).
Exits 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build hqbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("hqbench: no HerQules sources next to the benchmark "
            "(expected src/CMakeLists.txt); nothing to measure")
        sys.exit(2)
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "hqbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "hqbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "hqbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["stream", "gate", "program"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small working sets (the benchmark's tests)")
    parser.add_argument("--rounds", type=int, default=0,
                        help="fixed work instead of --seconds (tests)")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"hqbench: build failed: {err}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    if args.tiny:
        cmd.append("--tiny")
    if args.rounds:
        cmd += ["--rounds", str(args.rounds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"hqbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 3) or not lines:
        log(f"hqbench: exited {proc.returncode} without a result")
        return 1
    detail = json.loads(lines[-1])

    correct = bool(detail["correct"])
    wanted = declared_metrics(args.trace == 1)
    if wanted is not None and sorted(wanted) != sorted(detail["metrics"]):
        log("hqbench: reported metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(wanted) - set(detail['metrics']))}, "
            f"extra {sorted(set(detail['metrics']) - set(wanted))}")
        correct = False

    host = detail["host"]
    print(f"hqbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={host['nproc']} crc32={host['crc32']} "
          f"build={host['build_type']} compiler={host['compiler']}")
    print(f"  {'metric':34} {'value':>16}  {'unit':10} samples")
    for name, m in detail["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34} {value:>16}  {m['unit']:10} {m['samples']}")
    for name, value in detail["counts"].items():
        print(f"  count {name} = {value}")
    if detail["layers"]:
        print("  span self time (ms):")
        for name, s in detail["layers"].items():
            print(f"    {name:32} count={s['count']:<9} "
                  f"self={s['self_ms']:.3f} total={s['total_ms']:.3f}")
    if detail["trace_file"]:
        print(f"  trace: {os.path.relpath(detail['trace_file'], ROOT)}")
    frac = detail["failed"] / max(1, detail["attempted"])
    print(f"  failed_ops_frac = {frac:.3g} ({detail['failed']} of "
          f"{detail['attempted']}); correct={correct}")
    for why in detail["failures"]:
        print(f"  FAILURE: {why}")
    print("detail: " + json.dumps(detail, separators=(",", ":")))

    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail["metrics"].items()},
    }
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

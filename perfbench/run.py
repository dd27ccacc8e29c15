#!/usr/bin/env python3
"""Repository benchmark: host speed and the paper's simulated results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
hpmvm libraries from src/) into .bench_build/, runs one workload for S
seconds of repetitions, checks the outputs, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (plus trace.overhead_pct). Build
output and diagnostics go to standard error. Exits non-zero without a
result when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
FIG5_BASELINE = ROOT / "bench" / "baselines" / "BENCH_fig5.json"
BUILD_TIMEOUT_S = 850
# Beyond --seconds a run needs its warm-up repetition and may overrun the
# deadline by one repetition; well under the 180 s limit of a run.
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no hpmvm sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs])
    return BUILD / "perfbench"


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def measure(binary, args):
    """Runs the binary; returns its raw JSON report."""
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--baseline", str(FIG5_BASELINE)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, check=False,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("the perfbench binary did not finish in time")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"the perfbench binary failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(raw):
    """End-to-end metric values (untraced repetitions only) and notes."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    probes = [r["probe_s"] for r in reps]
    wall = [r["run_s"] for r in reps]
    run = stats.host_corrected(wall, probes)
    setup = stats.host_corrected([r["setup_s"] for r in reps], probes)
    tail = stats.tail(run)
    # Rates are work over all the host seconds the repetitions took (every
    # repetition does the same work, as the output check makes sure). This
    # follows the share of slow repetitions smoothly, where a median jumps
    # between a fast and a slow mode.
    run_total = sum(run)
    values = {
        "run_s": stats.median(run),
        "run_s_tail": tail[1] if tail else None,
        "sim_minst_per_s": raw["machine_insts"] * len(run) / run_total,
        "requests_per_s": raw["requests"] * len(run) / run_total,
        "setup_s": stats.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "virt_ms": raw["virt_ms"],
        "l1_miss_per_kacc": raw["l1_miss_per_kacc"],
        "monitor_overhead_pct": raw["monitor_overhead_pct"],
        "ok_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
    }
    note = (f"run_s: median of {len(run)} repetitions; run_s_tail: "
            + (f"p{tail[0]:.1f} of {len(run)}" if tail else
               f"none (needs {stats.TAIL_BEYOND + 1} repetitions)")
            + f"; uncorrected wall median {stats.median(wall):.6g} s, "
            f"probe median {stats.median(probes) * 1e3:.4g} ms")
    return values, note


def per_layer(raw):
    """Per-layer metric values: medians over the traced repetitions, and
    the traced against the untraced median run time, both host-corrected."""
    traced = [r for r in raw["reps"] if r["traced"]]
    plain = [r for r in raw["reps"] if not r["traced"]]
    if not traced or not plain:
        return {}, "no traced or no untraced repetition"
    values = {name: stats.median([r["layers"][name] for r in traced])
              for name in traced[0]["layers"]}

    def corrected_median(reps):
        return stats.median(stats.host_corrected(
            [r["run_s"] for r in reps], [r["probe_s"] for r in reps]))

    overhead = corrected_median(traced) / corrected_median(plain)
    values["trace.overhead_pct"] = 100.0 * (overhead - 1.0)
    return values, (f"{len(traced)} traced and {len(plain)} untraced "
                    f"repetitions")


def main():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2^32)")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")

    binary = build()
    raw = measure(binary, args)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values, note = (per_layer if args.trace else end_to_end)(raw)
    metrics = {}
    missing = []
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for err in raw["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for name in missing:
        print(f"metric not measured: {name}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {note}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    correct = not raw["errors"] and raw["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Record sets of benchmark runs, check their spread, compare two sets.

    python3 perfbench/compare.py record OUT PARENT_ROOT [CHANGE_ROOT]
                                        [--runs 10] [--first-seed 1]
    python3 perfbench/compare.py spread OUT
    python3 perfbench/compare.py diff OUT

record runs ROOT/perfbench/run.py --trace 0 from each checkout root, for
every workload and seeds first-seed .. first-seed+runs-1, with the run
length and workloads of this checkout's BENCHMARK.json. With two roots the
parent and change runs of one seed and workload form a pair, run back to
back, and the side that runs first alternates from pair to pair, so slow
phases of the host fall on both sides alike. It prints every run's metrics
by name and unit with its output check, and writes each run's result line
(with its seed) to OUT/parent/<workload>.jsonl or OUT/change/<workload>.jsonl.
OUT must not exist yet. "record OUT . --runs 1" is the one command that
prints every end-to-end metric of all workloads.

spread prints, per side, workload and end-to-end metric, the median of the
runs and their quartile spread as a share of the median, against the
metric's bound from BENCHMARK.json.

diff prints one row per workload and end-to-end metric: both sides'
medians and quartiles, the pairs the change won (runs paired by seed) and
a verdict -- better, worse, unchanged or unresolved -- by the rule in
stats.verdict.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(root, name, seed, seconds):
    """Runs one workload from checkout root; returns (summary, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed in {root}: {' '.join(cmd)}")
    return lines[:-1], json.loads(lines[-1])


def record(args):
    spec = load_spec()
    out = Path(args.out)
    if out.exists():
        sys.exit(f"{out} exists; record into a new directory")
    roots = [Path(r).resolve() for r in [args.parent_root, args.change_root]
             if r is not None]
    sides = list(zip(SIDES, roots))
    for side, _ in sides:
        (out / side).mkdir(parents=True)
    for i in range(args.runs):
        seed = args.first_seed + i
        for j, w in enumerate(spec["workloads"]):
            # Each workload's pairs alternate which side runs first.
            order = sides if (i + j) % 2 == 0 else sides[::-1]
            for side, root in order:
                summary, result = run_once(root, w["name"], seed,
                                           spec["run_seconds"])
                result["seed"] = seed
                with open(out / side / f"{w['name']}.jsonl", "a") as f:
                    f.write(json.dumps(result) + "\n")
                # run.py's summary: every metric by name and unit.
                print(f"[{side}] " + "\n".join(summary))
                print(f"  correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)


def load_runs(directory, name):
    path = Path(directory) / f"{name}.jsonl"
    if not path.is_file():
        return []
    runs = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    return sorted(runs, key=lambda r: r["seed"])


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def spread(args):
    spec = load_spec()
    worst = "ok"
    for side in SIDES:
        if not (Path(args.out) / side).is_dir():
            continue
        print(f"{side:18s} {'metric':22s} {'runs':>4s} {'median':>12s} "
              f"{'spread':>8s} {'bound':>6s}  status")
        for w in spec["workloads"]:
            runs = load_runs(Path(args.out) / side, w["name"])
            if not runs:
                continue
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                print(f"{w['name']}: incorrect runs at seeds {bad}")
                worst = "fail"
            for m in spec["end_to_end"]:
                v = values(runs, m["name"])
                if not v:
                    continue
                s = stats.spread(v)
                status = ("ok" if s < m["bound"] / 3 else
                          "within bound" if s <= m["bound"] else "TOO WIDE")
                if m["name"] == "setup_s" and status == "TOO WIDE":
                    status = "wide (setup_s is exempt)"
                elif status == "TOO WIDE":
                    worst = "fail"
                print(f"{w['name']:18s} {m['name']:22s} {len(v):4d} "
                      f"{stats.median(v):12.6g} {100 * s:7.2f}% "
                      f"{100 * m['bound']:5.1f}%  {status}")
    return 0 if worst == "ok" else 1


def diff(args):
    spec = load_spec()
    print(f"{'workload':18s} {'metric':22s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'won':>7s}  verdict")
    for w in spec["workloads"]:
        parent = load_runs(Path(args.out) / "parent", w["name"])
        change = load_runs(Path(args.out) / "change", w["name"])
        if not parent or not change:
            continue
        # Pair runs by seed.
        seeds = sorted({r["seed"] for r in parent} &
                       {r["seed"] for r in change})
        by_seed_p = {r["seed"]: r for r in parent}
        by_seed_c = {r["seed"]: r for r in change}
        for m in spec["end_to_end"]:
            pv = values([by_seed_p[s] for s in seeds], m["name"])
            cv = values([by_seed_c[s] for s in seeds], m["name"])
            if not pv or len(pv) != len(cv):
                continue
            verdict, wins, pairs = stats.verdict(pv, cv, m["better"],
                                                 m["bound"])
            p1, pm, p3 = stats.quartiles(pv)
            c1, cm, c3 = stats.quartiles(cv)
            print(f"{w['name']:18s} {m['name']:22s} "
                  f"{pm:12.6g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:12.6g} [{c1:9.5g}, {c3:9.5g}] "
                  f"{wins:3d}/{pairs:<3d}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record")
    p.add_argument("out")
    p.add_argument("parent_root")
    p.add_argument("change_root", nargs="?")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    for command in ("spread", "diff"):
        sub.add_parser(command).add_argument("out")
    args = parser.parse_args()
    if args.command == "record":
        record(args)
        return 0
    return spread(args) if args.command == "spread" else diff(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Record perfbench/BASELINE.json from a full run of the benchmark.

Run from the repo root after building (`cargo build --release --offline
--manifest-path perfbench/Cargo.toml`):

    python3 perfbench/record_baseline.py [--spread] [--bin PATH]

One run per workload and mode on seed 42 gives the baseline values and the
self-time table of each traced pass. `--spread` adds ten end-to-end runs per
workload on seeds 1..10 and records each metric's interquartile range over
its median, the statistic the benchmark's bounds are checked against (about
fifteen minutes more).
"""
import argparse
import json
import os
import re
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def output_of(*command):
    try:
        return subprocess.run(command, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def run(binary, workload, seed, trace):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    shares = re.search(r"self-time shares of the last traced pass: (.*)", done.stdout)
    table = dict(pair.rsplit(" ", 1) for pair in shares.group(1).split(", ")) if shares else {}
    return values, {layer: float(share) for layer, share in table.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--bin", default=os.path.join(HERE, "target", "release", "perfbench"))
    args = parser.parse_args()

    manifest = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    baseline = {
        "host": {
            "nproc": os.cpu_count(),
            "commit": output_of("git", "rev-parse", "HEAD") or "unknown",
            "rustc": output_of("rustc", "-V"),
            "cpu": output_of("sh", "-c", "grep -m1 'model name' /proc/cpuinfo | cut -d: -f2"),
        },
        "seed": 42,
        "run_seconds": manifest["run_seconds"],
        "end_to_end": {},
        "per_layer": {},
        "self_time_share": {},
    }
    for workload in (w["name"] for w in manifest["workloads"]):
        baseline["end_to_end"][workload], _ = run(args.bin, workload, 42, 0)
        baseline["per_layer"][workload], baseline["self_time_share"][workload] = run(
            args.bin, workload, 42, 1
        )
        print(workload, baseline["end_to_end"][workload], flush=True)
        if args.spread:
            rows = [run(args.bin, workload, seed, 0)[0] for seed in range(1, 11)]
            spread = {}
            for name in rows[0]:
                values = [row[name] for row in rows]
                quartiles = statistics.quantiles(values, n=4)
                spread[name] = (quartiles[2] - quartiles[0]) / statistics.median(values)
            baseline.setdefault("spread_over_ten_seeds", {})[workload] = spread
            print("  spread", spread, flush=True)
    with open(os.path.join(HERE, "BASELINE.json"), "w") as out:
        json.dump(baseline, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()

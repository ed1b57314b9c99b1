"""Run every workload once and print its metrics as one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own ``run.py`` process, timed; with --trace a
traced run of each workload follows and its per-layer metrics are listed
too (zeros, for layers a workload does not reach, are left out).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            res = run(workload, args.seed, args.seconds, trace)
            print(f"{workload} ({'traced' if trace else 'timed'}, seed {args.seed}): "
                  f"{res['attempted']} ops sampled, error_rate {res['failed']}/{res['attempted']} "
                  f"= {res['failed'] / res['attempted']:.4g}")
            for name, m in res["metrics"].items():
                if not trace or m["value"]:
                    print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run bench/run.py over several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads exact mc_zary --seeds 1 2 3 4 5 --out .bench_results/spread.json

For each workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median that the
bounds in BENCHMARK.json are checked against.  --out also keeps every
run's passes and the environment record of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append(result)
            report.setdefault("env", detail["env"])
            report.setdefault("passes", {}).setdefault(workload, []).append(detail["passes"])
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        report["workloads"][workload] = {"failed": sum(r["failed"] for r in runs), "metrics": metrics}
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if s["spread"] > bound else "")
            print(f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{flag}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

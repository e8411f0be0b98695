"""treespread benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload exact --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1.  The line before it records the
environment, the set-up samples, every pass and, when traced, every span
record.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 11
SETUP_CODE = "import treespread.cli as cli; cli.build_parser()"
# worker threads for untraced runs (the 2 CPUs of the reference box); traced runs use 1,
# so per-chunk peak bytes and kernel rates do not depend on scheduling
THREADS = {0: "2", 1: "1"}
WORKER_TIMEOUT_S = 170


def child_env(threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TREESPREAD_THREADS"] = threads
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters that import treespread.cli and build its parser.

    One unmeasured start first, which writes the bytecode caches.  No timeout:
    with one, subprocess polls the child in steps of up to 50 ms.
    """
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the workload's passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0, help="shrinks trial and start counts (smoke test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "treespread" / "cli.py").is_file():
        print(f"error: no treespread source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]

    env = child_env(THREADS[args.trace])
    setup = measure_setup(env) if args.trace == 0 else []
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", str(args.scale)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.decode().splitlines()[-1])

    values = res["values"]
    if setup:
        values["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"env": res["env"], "setup_s_samples": setup, "passes": res["passes"], "spans": res["spans"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

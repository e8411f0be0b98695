"""Smoke test of the benchmark at a tiny size (about a minute).

    python3 bench/smoke.py

1. Runs bench/run.py on every workload in both trace modes at --scale 0.01 and
   checks that each run exits 0, fails no op, and emits exactly the metrics
   BENCHMARK.json names, with their units.
2. Runs one op of each subcommand through the worker's op runner three ways --
   with its output corrupted, with a wrong exit code, and with an invalid
   argument -- and checks that each counts as a failed op.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import replace
from io import StringIO
from pathlib import Path
from tempfile import TemporaryDirectory

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROTATE = str.maketrans("0123456789", "1234567890")
SCALE = 0.01


def check_metric_names(spec: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops", flush=True)
    return problems


def check_failures_count() -> list[str]:
    problems = []
    with TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "op.out"
        seen = set()
        for build in WORKLOADS.values():
            for op in build(1, SCALE):
                if op.sub in seen:
                    continue
                seen.add(op.sub)
                broken = {
                    "corrupted output": replace(op, check=lambda c, o, e, op=op: op.check(
                        c, o.translate(ROTATE), e.translate(ROTATE))),
                    "wrong exit code": replace(op, check=lambda c, o, e, op=op: op.check(c + 1, o, e)),
                    "invalid argument": replace(op, argv=(*op.argv, "--k", "0")),
                }
                with redirect_stderr(StringIO()):
                    if not worker.execute(op, out)[0]:
                        problems.append(f"{op.label}: failed as given")
                    for name, bad in broken.items():
                        if worker.execute(bad, out)[0]:
                            problems.append(f"{op.label}: {name} was not counted as a failure")
                print(f"{op.label}: checked the corrupted, wrong-code and invalid variants", flush=True)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_failures_count() + check_metric_names(spec)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

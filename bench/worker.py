"""Workload process: runs one workload's ops through `treespread.cli.main` and
prints one JSON line with the measured values.

`bench/run.py` starts this in a fresh interpreter with `src/` on PYTHONPATH.

--trace 0  repeats passes over the workload's ops for --seconds and reports
           the sum of each op's median time and the process's peak RSS.
--trace 1  runs one untraced pass, then wraps the package's public functions
           (see spans.py) and runs one traced pass, and reports per-layer values.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from spans import Probe, Recorder, instrument
from workloads import MC_LABELS, SUBCOMMANDS, WORKLOADS, mc_label

ROOT = Path(__file__).resolve().parent.parent


def execute(op, out_path: Path) -> tuple[bool, float, int]:
    """Run one op and check its output: (passed, seconds in cli.main, bytes written)."""
    from treespread import cli

    err = io.StringIO()
    out_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([*op.argv, "--out", str(out_path)])
        elapsed = time.perf_counter() - t0
        text = out_path.read_text()
        op.check(code, text, err.getvalue())
    except (Exception, SystemExit) as exc:  # a crash, a usage error or a wrong result: one failed op
        print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, time.perf_counter() - t0, 0
    return True, elapsed, len(text.encode())


def run_pass(ops, tmp: Path) -> dict:
    """One pass over the ops, in order, with the time each op spent in cli.main."""
    sub_s = dict.fromkeys(SUBCOMMANDS, 0.0)
    op_s = []
    failed = out_bytes = 0
    for i, op in enumerate(ops):
        ok, elapsed, nbytes = execute(op, tmp / f"{i}.out")
        op_s.append(elapsed)
        sub_s[op.sub] += elapsed
        failed += not ok
        out_bytes += nbytes
    return {"batch_s": sum(op_s), "sub_s": sub_s, "op_s": op_s, "attempted": len(ops), "failed": failed,
            "out_bytes": out_bytes}


def timed_passes(ops, tmp: Path, seconds: float) -> list[dict]:
    """Passes until another one would end past `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tmp))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            return passes


def _sim_name(args, kwargs) -> str:
    cfg = args[0] if args else kwargs["cfg"]
    z = cfg.dist.z_value if cfg.dist.is_deterministic else None
    return "mc_sim." + mc_label(z, cfg.k, cfg.height, cfg.alpha)


def _sim_leaves(args, kwargs, result) -> dict:
    cfg = args[0] if args else kwargs["cfg"]
    return {"leaves": cfg.trials * cfg.dist.mean**cfg.height}


PROBES = [
    Probe("offspring", "pgf", points_arg="s"),
    Probe("offspring", "pgf_deriv", points_arg="s"),
    Probe("dynamics", "scalar_eval", points_arg="x"),
    Probe("dynamics", "scalar_deriv", points_arg="x"),
    Probe("dynamics", "step_full"),
    Probe("dynamics", "step_variant"),
    Probe("dynamics", "iterate", after=lambda a, kw, r: {"steps": r.iterations}),
    Probe("analysis", "find_fixed_point"),
    Probe("analysis", "critical_points"),
    Probe("analysis", "check_orbit_conditions"),
    Probe("analysis", "analysis_bundle"),
    Probe("analysis", "find_orbit"),
    Probe("analysis", "basin_classify",
          after=lambda a, kw, r: {"f2_steps": sum(r.iterations), "unresolved": r.verdicts.count("unresolved")}),
    Probe("mc_sim", "simulate_root", name_of=_sim_name, after=_sim_leaves, track_memory=True),
    Probe("cli", "main"),
]


def _per(numerator: float, denominator: float, unit: float = 1.0) -> float:
    return numerator / denominator * unit if denominator else 0.0


def layer_values(rec: Recorder, untraced: dict, traced: dict) -> dict:
    v = {}
    v["cli.self_s"] = rec.get("cli.main")["self_s"]
    v["cli.out_bytes"] = traced["out_bytes"]
    v["cli.fail_rate"] = _per(traced["failed"], traced["attempted"])
    for sub in SUBCOMMANDS:
        v[f"cli.{sub}_s"] = untraced["sub_s"][sub]
    for name in ("offspring.pgf", "dynamics.scalar_eval"):
        r = rec.get(name)
        v[f"{name}.points"] = r["points"]
        v[f"{name}.calls"] = r["calls"]
        v[f"{name}.ns_per_point"] = _per(r["busy_s"], r["points"], 1e9)
    steps = [rec.get("dynamics.step_full"), rec.get("dynamics.step_variant")]
    v["dynamics.step.calls"] = sum(r["calls"] for r in steps)
    v["dynamics.step.us_per_call"] = _per(sum(r["busy_s"] for r in steps), v["dynamics.step.calls"], 1e6)
    v["dynamics.iterate.steps"] = rec.get("dynamics.iterate")["counters"].get("steps", 0)
    r = rec.get("analysis.find_fixed_point")
    v["analysis.find_fixed_point.calls"] = r["calls"]
    v["analysis.find_fixed_point.self_s"] = r["self_s"]
    r = rec.get("analysis.find_orbit")
    v["analysis.find_orbit.self_s"] = r["self_s"]
    v["analysis.find_orbit.map_points"] = r["counters"].get("dynamics.scalar_eval.points", 0)
    r = rec.get("analysis.basin_classify")
    f2_steps = r["counters"].get("f2_steps", 0)
    v["analysis.basin.f2_steps"] = f2_steps
    v["analysis.basin.ns_per_f2_step"] = _per(r["busy_s"], f2_steps, 1e9)
    v["analysis.basin.unresolved"] = r["counters"].get("unresolved", 0)
    v["analysis.basin_classify.self_s"] = r["self_s"]
    for label in MC_LABELS:
        r = rec.get("mc_sim." + label)
        n_leaves = r["counters"].get("leaves", 0)
        v[f"mc_sim.{label}.s"] = r["busy_s"]
        v[f"mc_sim.{label}.leaves"] = n_leaves
        v[f"mc_sim.{label}.leaves_per_s"] = _per(n_leaves, r["busy_s"])
        v[f"mc_sim.{label}.peak_bytes"] = r["counters"].get("peak_bytes", 0)
    v["trace.overhead_s"] = traced["batch_s"] - untraced["batch_s"]
    return v


def environment(args) -> dict:
    import treespread

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "treespread": str(Path(treespread.__file__).resolve().relative_to(ROOT.resolve())),
        "TREESPREAD_THREADS": os.environ.get("TREESPREAD_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args()

    import treespread

    src = ROOT / "src"
    if Path(treespread.__file__).resolve().parent.parent != src.resolve():
        print(f"treespread imported from {treespread.__file__}, not from {src}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed, args.scale)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        spans = []
        if args.trace == 0:
            passes = timed_passes(ops, tmp, args.seconds)
            # each op's median over the passes, summed: a slow spell inflates one op in one
            # pass, where it would inflate the whole pass's total
            values = {
                "batch_s": sum(statistics.median(times) for times in zip(*(p["op_s"] for p in passes))),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            untraced = run_pass(ops, tmp)
            rec = Recorder()
            undo = instrument(rec, PROBES)
            try:
                traced = run_pass(ops, tmp)
            finally:
                undo()
            passes = [untraced, traced]
            values = layer_values(rec, untraced, traced)
            spans = list(rec.records.values())
    out = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "values": values,
        "passes": passes,
        "spans": spans,
        "env": environment(args),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

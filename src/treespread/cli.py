"""Command-line front end.

Subcommands: iterate, analyze, orbit, basin, simulate.  Exit codes follow a
fixed protocol so CI scripts can assert results directly:

    0  success (including converged / period2 stops)
    1  invalid configuration, including usage errors, unreadable --config files and
       an iterate run whose kept states would pass dynamics.MAX_TRAJECTORY_BYTES
    2  iteration budget exhausted, or a simulate z-score above 4
    3  legitimate absence (no orbit of the requested period; for basin, no attracting 2-cycle)

Every output embeds the resolved configuration: the subcommand and every flag
it parsed but --out and --config, making runs self-describing; identical
config + seed gives byte-identical output.

This module is the one that knows what an output file looks like: a JSON file is
json.dumps(obj, indent=2, sort_keys=True) and a newline, a CSV file begins with a
'# config: ' line, and CSV values are written as .17g.  The two outputs that grow
with their input are streamed: iterate's trajectory a block of floats at a time,
and basin's starts a batch of BASIN_BATCH at a time, so neither is held whole as text.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import analysis, dynamics, mc_sim
from .dynamics import (
    DiseaseProfile,
    ScalarMapSpec,
    Trajectory,
    _check_max_iters,
    dominant_profile,
    iterate,
    make_profile,
    stepper,
    uniform_profile,
)
from .mc_sim import SimConfig, simulate_root
from .offspring import parse_offspring

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BUDGET = 2
EXIT_ABSENT = 3
# basin draws, classifies and writes its starts this many at a time
BASIN_BATCH = 1 << 16


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError, so they exit 1 like any invalid configuration."""

    def error(self, message):
        raise ConfigError(message)


def parse_profile(text: str, k: int | None) -> DiseaseProfile:
    text = text.strip()
    if text.startswith("uniform:"):
        kk = int(text.split(":", 1)[1])
        if k is not None and k != kk:
            raise ConfigError(f"--k {k} conflicts with profile uniform:{kk}")
        return uniform_profile(kk)
    if text.startswith("dominant:"):
        i = int(text.split(":", 1)[1])
        if k is None:
            raise ConfigError("profile dominant:I needs --k")
        return dominant_profile(k, i)
    masses = [float(v) for v in text.split(",")]
    if k is not None and k != len(masses) - 1:
        raise ConfigError(f"--k {k} conflicts with explicit profile of k={len(masses) - 1}")
    return make_profile(masses)


def _fmt(x: float) -> str:
    """A float as every CSV value is written: .17g, which round-trips."""
    return f"{float(x):.17g}"


def _json_text(obj) -> str:
    """An object as every JSON output writes it, without the final newline."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _config_line(cfg: dict) -> str:
    """The first line of every CSV output."""
    return "# config: " + json.dumps(cfg, sort_keys=True) + "\n"


# parsed dests that are not part of a run's configuration
_NOT_CONFIG = frozenset({"command", "config", "func", "out"})


def _resolved_config(args) -> dict:
    """The subcommand and every flag value it parsed, as embedded in its output."""
    cfg = {"subcommand": args.command}
    cfg.update((name, value) for name, value in vars(args).items() if name not in _NOT_CONFIG)
    return cfg


def _output(out_path: str | None):
    """The --out file opened for writing, or stdout (left open) without one."""
    if not out_path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out_path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


def _json_out(obj: dict, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(_json_text(obj) + "\n")


def _state_text(states, fmt, sep: str, head, block: int = 1 << 13):
    """The states' values as text pieces: row n begins with head(n), and its values are joined by sep.

    The states go into float64 arrays a block of about `block` floats at a time: whole rows, or
    slices of one row wider than a block, whose pieces after the first begin with sep.  Slices of
    an array are views, so memory stays that of one block (a list of states copies one block).
    np.unique on a block's int64 view finds its distinct bit patterns (so 0.0 and -0.0 stay apart),
    and fmt maps them, as a list of Python floats, to their strings: each value repeated within a
    block is formatted once.
    """
    rows = max(1, block // max(1, np.size(states[0])))
    for i in range(0, len(states), rows):
        a = np.asarray(states[i : i + rows], dtype=float)
        a = a.reshape(len(a), -1)  # a scalar state is a row of one value
        for j in range(0, a.shape[1], block):
            part = a[:, j : j + block]
            keys, inverse = np.unique(part.view(np.int64), return_inverse=True)
            words = np.array(fmt(keys.view(np.float64).tolist()), dtype=object)
            # numpy releases differ in the inverse's shape for a multi-dimensional input
            for n, row in enumerate(words.take(inverse.reshape(part.shape)).tolist(), i):
                yield (sep if j else head(n)) + sep.join(row)


def write_trajectory_csv(traj: Trajectory, fh, config: dict) -> None:
    """Write the config line, then the trajectory as CSV, to fh.

    The columns are n, p_1..p_{k+1} (or n, x for a scalar trajectory), the values as .17g.  The
    header and the states go out a block at a time (_state_text), so the
    whole text is never held in memory.  No field holds a comma, quote or newline, so each row is
    what csv.writer writes for it.
    """
    fh.write(_config_line(config) + "n")
    if np.ndim(traj.states[0]) == 0:
        fh.write(",x")
    else:
        width = len(traj.states[0])
        for i in range(0, width, 1 << 13):
            fh.write("".join(f",p_{j + 1}" for j in range(i, min(i + (1 << 13), width))))
    for piece in _state_text(traj.states, lambda vs: [_fmt(v) for v in vs], ",", lambda n: f"\n{n},"):
        fh.write(piece)
    fh.write("\n")


def write_trajectory_json(traj: Trajectory, fh, config: dict) -> None:
    """Write the trajectory and its config to fh as _json_text(obj) + newline.

    obj holds stop_reason, iterations, tol, config and the states as lists of floats (a float for a
    scalar state).  The states go out a block of floats at a time (_state_text), each distinct
    value of a block formatted once by one json.dumps of them all (a float as float.__repr__ does,
    NaN and +-Infinity as json does) and then indented, so the whole text is never held in memory.
    """
    head = {"stop_reason": traj.stop_reason, "iterations": traj.iterations, "tol": traj.tol, "config": config}
    # "states" is the one top-level key indented by two spaces: strings escape their newlines
    before, after = _json_text({**head, "states": []}).split('\n  "states": []')
    fh.write(before + '\n  "states": [')
    opening, closing = ("[\n      ", "\n    ]") if np.ndim(traj.states[0]) else ("", "")
    # no number json writes holds ", ", so each one it finds is a separator
    pieces = _state_text(traj.states, lambda vs: json.dumps(vs)[1:-1].split(", "), ",\n      ",
                         lambda n: (closing + ",\n    " if n else "\n    ") + opening)
    for piece in pieces:
        fh.write(piece)
    fh.write(closing + "\n  ]" + after + "\n")


def cmd_iterate(args) -> int:
    dist = parse_offspring(args.offspring)
    profile = parse_profile(args.profile, args.k)
    traj = iterate(stepper(dist, args.alpha), profile, max_iters=args.max_iters, tol=args.tol)
    cfg = _resolved_config(args)
    cfg["k"] = profile.k
    write = write_trajectory_csv if args.format == "csv" else write_trajectory_json
    with _output(args.out) as fh:
        write(traj, fh, cfg)
    return EXIT_OK if traj.stop_reason in ("converged", "period2") else EXIT_BUDGET


def _scalar_spec(args) -> ScalarMapSpec:
    """The standard scalar map of --offspring and --k, for analyze, orbit and basin."""
    dist = parse_offspring(args.offspring)
    if args.k is None:
        raise ConfigError(f"{args.command} needs --k")
    return ScalarMapSpec(dist, args.k)


def cmd_analyze(args) -> int:
    spec = _scalar_spec(args)
    report = analysis.analysis_bundle(spec, i=args.i)
    report["config"] = _resolved_config(args)
    _json_out(report, args.out)
    return EXIT_OK


def cmd_orbit(args) -> int:
    spec = _scalar_spec(args)
    orbit = analysis.find_orbit(spec, args.period)
    obj = {"orbit": None} if orbit is None else asdict(orbit)
    obj["config"] = _resolved_config(args)
    _json_out(obj, args.out)
    return EXIT_ABSENT if orbit is None else EXIT_OK


def cmd_basin(args) -> int:
    spec = _scalar_spec(args)
    if args.starts < 1:
        raise ConfigError(f"--starts must be >= 1, got {args.starts}")
    orbit = analysis.find_orbit(spec, 2)
    if orbit is None or not orbit.stable:
        print("no attracting period-2 orbit; nothing to classify", file=sys.stderr)
        return EXIT_ABSENT
    _check_max_iters(args.max_iters)  # before the header, so a refused run writes nothing
    rng = np.random.default_rng(args.seed)
    counts = collections.Counter()
    cfg = _resolved_config(args)
    with _output(args.out) as fh:
        fh.write(_config_line(cfg) + "start,verdict,iterations\n")
        # rng.random draws the same doubles in batches as in one call, and each start's verdict is its own
        for done in range(0, args.starts, BASIN_BATCH):
            starts = (rng.random(min(BASIN_BATCH, args.starts - done)) * (1.0 / args.k)).tolist()
            report = analysis.basin_classify(spec, starts, max_iters=args.max_iters, orbit=orbit)
            fh.writelines(f"{_fmt(s)},{v},{n}\n" for s, v, n in zip(starts, report.verdicts, report.iterations))
            counts.update(report.verdicts)
    fractions = {v: counts[v] / args.starts for v in report.fractions}  # every verdict, also those of no start
    summary = {"fractions": fractions, "n_starts": args.starts, "orbit": asdict(orbit), "config": cfg}
    print(_json_text(summary), file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    dist = parse_offspring(args.offspring)
    profile = parse_profile(args.profile, args.k)
    sim_cfg = SimConfig(
        dist=dist,
        profile=profile.masses,
        height=args.height,
        trials=args.trials,
        alpha=args.alpha,
        seed=args.seed,
        node_budget=args.node_budget,
    )
    result = simulate_root(sim_cfg)
    step = stepper(dist, args.alpha)
    analytic = np.asarray(profile.masses)
    for _ in range(args.height):
        analytic = step(analytic)
    # the analytic sigma is a floor: an empirical count of 0 or n gives a stderr of 0
    z_scores = [
        (m - a) / max(se, math.sqrt(max(a * (1 - a), 0.0) / result.trials), 1e-12)
        for m, se, a in zip(result.masses, result.stderr, analytic)
    ]
    cfg = _resolved_config(args)
    cfg["k"] = profile.k
    if args.format == "csv":
        with _output(args.out) as fh:
            fh.write(_config_line(cfg) + "coord,analytic,empirical,stderr,z\n")
            for i, row in enumerate(zip(analytic, result.masses, result.stderr, z_scores)):
                name = f"p_{i + 1}" if i < profile.k else "sane"
                fh.write(",".join([name, *map(_fmt, row)]) + "\n")
    else:
        obj = {
            "analytic": [float(v) for v in analytic],
            "empirical": asdict(result),
            "z_scores": z_scores,
            "config": cfg,
        }
        _json_out(obj, args.out)
    return EXIT_BUDGET if any(abs(z) > 4.0 for z in z_scores) else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = _Parser(
        prog="treespread",
        description="Competing-disease dynamics on Galton-Watson and z-ary trees",
    )
    parser.add_argument("--config", help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=False, sim=False):
        p.add_argument("--offspring", required=True, help='"zary:Z" or JSON {"masses": [[z,q],...]}')
        p.add_argument("--k", type=int, default=None, help="number of diseases")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if profile:
            p.add_argument(
                "--profile",
                required=True,
                help='"uniform:K", "dominant:I", or comma-separated k+1 masses',
            )
            p.add_argument("--alpha", type=float, default=None, help="variant retention probability")
            p.add_argument("--format", choices=("csv", "json"), default="json")
        if sim:
            p.add_argument("--height", type=int, required=True)
            p.add_argument("--trials", type=int, required=True)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--node-budget", type=float, default=mc_sim.DEFAULT_NODE_BUDGET)

    p = sub.add_parser("iterate", help="iterate the exact root-distribution recursion")
    common(p, profile=True)
    p.add_argument("--tol", type=float, default=dynamics.DEFAULT_TOL)
    p.add_argument("--max-iters", type=int, default=dynamics.DEFAULT_MAX_ITERS)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("analyze", help="fixed point, bounds, spectrum, orbit conditions")
    common(p)
    p.add_argument("--i", type=int, default=None, help="dominant-disease count")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("orbit", help="locate a period-2 or period-4 orbit")
    common(p)
    p.add_argument("--period", type=int, choices=(2, 4), default=2)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("basin", help="classify random starts by their limiting orbit")
    common(p)
    p.add_argument("--starts", type=int, default=10_000, help="random starts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.set_defaults(func=cmd_basin)

    p = sub.add_parser("simulate", help="Monte Carlo vs analytic recursion comparison")
    common(p, profile=True, sim=True)
    p.set_defaults(func=cmd_simulate)

    return parser


# finds --config in any form argparse accepts: --config=FILE, or abbreviated
_CONFIG_FLAG = _Parser(add_help=False)
_CONFIG_FLAG.add_argument("--config")


def _apply_config(argv: list[str]) -> list[str]:
    """Splice the defaults of a --config JSON file into argv; explicit flags win."""
    known, argv = _CONFIG_FLAG.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config) as fh:
            defaults = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(defaults, dict):
        raise ConfigError("config file must hold a JSON object of option values")
    extra = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if flag not in argv and value is not None:
            extra += [flag, value if isinstance(value, str) else json.dumps(value)]
    if argv and not argv[0].startswith("-"):
        return [argv[0]] + extra + argv[1:]
    return argv + extra


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_apply_config(argv))
        return args.func(args)
    except ValueError as exc:  # ConfigError, DynamicsError, OffspringError and SimulationError subclass it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

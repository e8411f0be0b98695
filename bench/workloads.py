"""The benchmark's workloads: the CLI calls each one makes and the checks on their outputs.

Every op is one `treespread.cli.main([...])` call.  Its check receives the exit
code, the text written to `--out` and the text written to stderr, recomputes
what it can with the plain-Python oracle below (which shares no code with the
package), and raises `CheckError` on any mismatch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# pinned oracle constants, the same values and tolerances as tests/test_acceptance.py
XBAR_6_2 = 0.2075774364546849
MULT_6_2 = -1.0536354141534723
ORBIT_6_2 = (0.15908679055012037, 0.25312424456452587)
ORBIT_6_2_MULT = 0.7865648045545469
CYCLE4_12_2 = (0.026846019049052955, 0.061328243087658, 0.20571291244539, 0.2599259649923288)

# the three-atom offspring law {3, 6, 10} with mass 1/3 each
FIG_FE = ((3, 1 / 3), (6, 1 / 3), (10, 1 / 3))
FIG_FE_ARG = json.dumps({"masses": [list(a) for a in FIG_FE]})

SUBCOMMANDS = ("iterate", "analyze", "orbit", "basin", "simulate")
EXIT_OK, EXIT_BUDGET = 0, 2


class CheckError(AssertionError):
    """An op's output is wrong."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass(frozen=True)
class Op:
    sub: str
    label: str
    argv: tuple[str, ...]  # without --out, which the runner appends
    check: Callable[[int, str, str], None]  # (exit code, --out text, stderr text)


# --- plain-Python oracle -------------------------------------------------------------


def G(atoms, s: float) -> float:
    return sum(q * s**z for z, q in atoms)


def G1(atoms, s: float) -> float:
    return sum(q * z * s ** (z - 1) for z, q in atoms)


def f(atoms, k: int, x: float) -> float:
    return G(atoms, 1 - (k - 1) * x) - G(atoms, 1 - k * x)


def f_iter(atoms, k: int, x: float, times: int) -> float:
    for _ in range(times):
        x = f(atoms, k, x)
    return x


def f_deriv(atoms, k: int, x: float) -> float:
    return k * G1(atoms, 1 - k * x) - (k - 1) * G1(atoms, 1 - (k - 1) * x)


def x_tilde(z: int, k: int) -> float:
    return (1.0 - z ** (-1.0 / (z - 1))) / k


def step(atoms, p, alpha: float | None = None) -> list[float]:
    """One step of the root-distribution recursion (standard or retention variant)."""
    sane = p[-1]
    if alpha is None:
        out = [G(atoms, min(sane + pi, 1.0)) - G(atoms, sane) for pi in p[:-1]]
    else:
        out = [
            G(atoms, min(sane + pi, 1.0)) - G(atoms, sane + pi * (1 - alpha)) + G(atoms, (1 - alpha) * pi)
            for pi in p[:-1]
        ]
    return out + [1.0 - sum(out)]


def sup_dist(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def profile_masses(text: str, k: int | None) -> list[float]:
    if text.startswith("uniform:"):
        kk = int(text.split(":")[1])
        return [1.0 / (kk + 1)] * (kk + 1)
    if text.startswith("dominant:"):
        i = int(text.split(":")[1])
        lead = 0.8 / (i + 0.5 * (k - i))
        masses = [lead] * i + [lead / 2] * (k - i)
        return masses + [1.0 - sum(masses)]
    return [float(v) for v in text.split(",")]


# --- checks --------------------------------------------------------------------------


def _iterate_check(atoms, profile, k, alpha, target=None):
    def check(code, out, err):
        expect(code == EXIT_OK, f"exit code {code}, want {EXIT_OK}")
        obj = json.loads(out)
        states = obj["states"]
        expect(obj["stop_reason"] in ("converged", "period2"), f"stop_reason {obj['stop_reason']}")
        expect(obj["iterations"] == len(states) - 1, "iterations disagree with the states listed")
        expect(sup_dist(states[0], profile_masses(profile, k)) <= 1e-15, "wrong start state")
        final = states[-1]
        expect(abs(sum(final) - 1.0) <= 1e-9 and min(final) >= -1e-12, "final state is off the simplex")
        again = step(atoms, final, alpha)
        if obj["stop_reason"] == "period2":
            again = step(atoms, again, alpha)
        expect(sup_dist(again, final) <= 1e-9, "final state is not a fixed point (or 2-cycle) of the recursion")
        if target is not None:
            expect(sup_dist(final, target) <= 1e-9, f"final state {final} != closed form {target}")

    return check


def _analyze_check(atoms, k, zary_z):
    def check(code, out, err):
        expect(code == EXIT_OK, f"exit code {code}, want {EXIT_OK}")
        fp = json.loads(out)["fixed_point"]
        x, mult = fp["x_bar"], fp["multiplier"]
        expect(0.0 < x <= 1.0 / k, f"x_bar {x} outside (0, 1/k]")
        expect(abs(f(atoms, k, x) - x) <= 1e-12, f"x_bar {x} is not a fixed point")
        want = f_deriv(atoms, k, x)
        expect(abs(mult - want) <= 1e-9 * max(1.0, abs(want)), f"multiplier {mult} != f'(x_bar) {want}")
        verdict = "attracting" if abs(mult) < 1 else "repelling"
        expect(fp["classification"] in (verdict, "indeterminate"), f"classification {fp['classification']}")
        if zary_z is not None:
            expect(fp["lower_bound"] == x_tilde(zary_z, k), "lower framing bound is not x_tilde(z, k)")
            expect(fp["lower_bound"] < x < fp["upper_bound"], "x_bar outside its framing bounds")
        if (zary_z, k) == (6, 2):
            expect(abs(x - XBAR_6_2) <= 1e-12, f"x_bar {x} != pinned {XBAR_6_2}")
            expect(abs(mult - MULT_6_2) <= 1e-12, f"multiplier {mult} != pinned {MULT_6_2}")

    return check


def _orbit_check(z, k, period, pinned=None, pinned_mult=None, tol=1e-10):
    atoms = ((z, 1.0),)

    def check(code, out, err):
        expect(code == EXIT_OK, f"exit code {code}, want {EXIT_OK}")
        obj = json.loads(out)
        points = obj["points"]
        expect(obj["period"] == period and len(points) == period, "wrong period")
        for x in points:
            expect(abs(f_iter(atoms, k, x, period) - x) <= 1e-10, f"f^{period}({x}) != {x}")
            fx = f(atoms, k, x)
            expect(min(abs(fx - y) for y in points) <= 1e-9, "points do not form one cycle")
        if pinned is not None:
            expect(sup_dist(points, pinned) <= tol, f"orbit {points} != pinned {pinned}")
        if pinned_mult is not None:
            expect(abs(obj["multiplier"] - pinned_mult) <= 1e-8, "multiplier != pinned")

    return check


def _basin_check(starts):
    def check(code, out, err):
        expect(code == EXIT_OK, f"exit code {code}, want {EXIT_OK}")
        lines = out.splitlines()
        expect(lines[0].startswith("# config: ") and lines[1] == "start,verdict,iterations", "bad CSV header")
        rows = [line.split(",") for line in lines[2:]]
        expect(len(rows) == starts, f"{len(rows)} rows for {starts} starts")
        names = ("orbit_left", "orbit_right", "fixed_point", "unresolved")
        for s, verdict, n in rows:
            expect(0.0 <= float(s) <= 0.5 and verdict in names and int(n) >= 0, "bad CSV row")
        summary = json.loads(err)
        fr = summary["fractions"]
        expect(summary["n_starts"] == starts, "summary start count")
        for name in names:
            count = sum(1 for r in rows if r[1] == name)
            expect(fr[name] == count / starts, f"fraction {name} disagrees with the CSV")
        expect(fr["orbit_left"] + fr["orbit_right"] >= 0.999, f"orbit fraction below 0.999: {fr}")
        expect(sup_dist(summary["orbit"]["points"], ORBIT_6_2) <= 1e-10, "basin orbit != pinned")

    return check


def _simulate_check(atoms, profile, k, height, trials, alpha):
    def check(code, out, err):
        obj = json.loads(out)
        analytic = profile_masses(profile, k)
        for _ in range(height):
            analytic = step(atoms, analytic, alpha)
        expect(sup_dist(obj["analytic"], analytic) <= 1e-12, "analytic recursion disagrees with the oracle")
        emp = obj["empirical"]
        masses, stderr = emp["masses"], emp["stderr"]
        expect(emp["trials"] == trials, "trial count")
        expect(abs(sum(masses) - 1.0) <= 1e-12, "empirical masses do not sum to 1")
        for m in masses:
            expect(abs(m * trials - round(m * trials)) <= 1e-6, f"empirical mass {m} is not a count / trials")
        for m, se, a in zip(masses, stderr, analytic):
            sigma = max(se, math.sqrt(a * (1 - a) / trials), 1e-12)
            expect(abs(m - a) <= 4 * sigma, f"|z| > 4 with the analytic-sigma floor: {m} vs {a}")
        want_code = EXIT_BUDGET if any(abs(z) > 4.0 for z in obj["z_scores"]) else EXIT_OK
        expect(code == want_code, f"exit code {code}, want {want_code}")

    return check


# --- workloads -----------------------------------------------------------------------


def mc_label(z: int | None, k: int, height: int, alpha: float | None) -> str:
    """Config label: z<z> for a z-ary tree or gw_ for the three-atom law, then k, height, alpha."""
    label = (f"z{z}" if z is not None else "gw_") + f"k{k}h{height}"
    if alpha is not None:
        label += "_a" + str(alpha).replace(".", "")
    return label


def _iterate(label, offspring, atoms, profile, k=None, alpha=None, target=None):
    argv = ["iterate", "--offspring", offspring, "--profile", profile, "--tol", "1e-12"]
    if k is not None:
        argv += ["--k", str(k)]
    if alpha is not None:
        argv += ["--alpha", str(alpha)]
    return Op("iterate", "iterate." + label, tuple(argv), _iterate_check(atoms, profile, k, alpha, target))


def _simulate(z, k, height, trials, profile, alpha, seed):
    offspring, atoms = (f"zary:{z}", ((z, 1.0),)) if z is not None else (FIG_FE_ARG, FIG_FE)
    argv = ["simulate", "--offspring", offspring, "--k", str(k), "--profile", profile,
            "--height", str(height), "--trials", str(trials), "--seed", str(seed)]
    if alpha is not None:
        argv += ["--alpha", str(alpha)]
    check = _simulate_check(atoms, profile, k, height, trials, alpha)
    return Op("simulate", mc_label(z, k, height, alpha), tuple(argv), check)


def exact_ops(seed: int, scale: float = 1.0) -> list[Op]:
    ops = []
    for k in range(2, 7):
        target = [1 / (2 * k - 1)] * k + [(k - 1) / (2 * k - 1)]
        ops.append(_iterate(f"z2_u{k}", "zary:2", ((2, 1.0),), f"uniform:{k}", target=target))
    ops.append(_iterate("z5_u50", "zary:5", ((5, 1.0),), "uniform:50"))
    ops.append(_iterate("gw_k8_d4", FIG_FE_ARG, FIG_FE, "dominant:4", k=8))
    ops.append(_iterate("z3_a03", "zary:3", ((3, 1.0),), "0.4,0.3,0.3", alpha=0.3))
    ops.append(_iterate("z2_a05", "zary:2", ((2, 1.0),), "0.5,0.2,0.3", alpha=0.5))
    for z in range(2, 13):
        for k in (2, 5, 20, 50):
            argv = ("analyze", "--offspring", f"zary:{z}", "--k", str(k))
            ops.append(Op("analyze", f"analyze.z{z}k{k}", argv, _analyze_check(((z, 1.0),), k, z)))
    ops.append(Op("analyze", "analyze.gw_k3", ("analyze", "--offspring", FIG_FE_ARG, "--k", "3"),
                  _analyze_check(FIG_FE, 3, None)))
    for z, k, period, pinned in ((6, 2, 2, ORBIT_6_2), (7, 2, 2, None), (12, 2, 4, CYCLE4_12_2)):
        argv = ("orbit", "--offspring", f"zary:{z}", "--k", str(k), "--period", str(period))
        check = _orbit_check(z, k, period, pinned, ORBIT_6_2_MULT if z == 6 else None,
                             tol=1e-10 if period == 2 else 1e-9)
        ops.append(Op("orbit", f"orbit.z{z}k{k}p{period}", argv, check))
    starts = max(100, round(10_000 * scale))
    argv = ("basin", "--offspring", "zary:6", "--k", "2", "--starts", str(starts), "--seed", str(seed))
    ops.append(Op("basin", "basin.z6k2", argv, _basin_check(starts)))
    return ops


def mc_zary_ops(seed: int, scale: float = 1.0) -> list[Op]:
    trials = max(64, round(16384 * scale))
    return [
        _simulate(2, 2, 15, trials, "uniform:2", None, seed),
        _simulate(3, 3, 9, trials, "uniform:3", None, seed),
        _simulate(2, 8, 12, trials, "uniform:8", None, seed),
    ]


def mc_gw_variant_ops(seed: int, scale: float = 1.0) -> list[Op]:
    big, small = max(64, round(32768 * scale)), max(64, round(16384 * scale))
    return [
        _simulate(None, 2, 5, big, "0.5,0.2,0.3", None, seed),
        _simulate(2, 2, 13, small, "0.5,0.2,0.3", 0.5, seed),
        _simulate(None, 2, 4, big, "0.5,0.2,0.3", 0.5, seed),
    ]


WORKLOADS = {"exact": exact_ops, "mc_zary": mc_zary_ops, "mc_gw_variant": mc_gw_variant_ops}

# every simulate config label, in the order the per-layer metrics list them
MC_LABELS = [op.label for build in (mc_zary_ops, mc_gw_variant_ops) for op in build(0)]


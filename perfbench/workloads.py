"""Inputs and operations of the three workloads.

``build(name, seed, workdir)`` draws a workload's inputs from ``seed`` and
returns one round: the list of operations a run repeats until its time is
up; CLI calls write their outputs to ``workdir``.  Every operation calls doublejc only through public names looked up on
the package at call time, so the tracer's wrappers see each call.  Each
operation carries its own check against ``reference``; operations named
with a ``fault`` hit a known program fault and are expected to fail, and
their ``signature`` tells that fault from any other failure.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import doublejc as dj
import doublejc.cli
import reference as ref

BIG_G = 1.0
NU = 10.0 * BIG_G  # the ModelParams.from_detuning default
DELTAS = (0.0, 0.5, 1.0, 2.0)
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    values: int = 0          # concurrence values the operation computes
    timed: bool = True       # a task of the timed section; probes and the long scan are untimed
    fault: str | None = None  # the program fault this operation is kept to expose
    signature: Callable[[Any], None] | None = None  # raises unless a failed output shows exactly that fault
    files: tuple = ()        # files the operation writes


def params(delta: float, big_g: float = BIG_G):
    return dj.ModelParams.from_detuning(delta, big_g)


def init(family: str, alpha: float):
    return dj.InitialState(dj.StateFamily(family), alpha)


def two_periods(delta: float, big_g: float = BIG_G) -> float:
    """A grid end that closes two periods, so no dead window is cut by it."""
    return 4.0 * math.pi / math.hypot(delta, big_g)


def clear_of_threshold(alpha: float, delta: float, dt: float) -> float:
    """Move alpha off the band around alpha_c where phi windows are under 10 grid spacings.

    Windows that narrow are misreported by detect_death (a kept fault), so
    seeded draws stay out of the band; the fault has operations of its own.
    """
    below = ref.alpha_for_width(10.0 * dt, delta, BIG_G)
    above = ref.death_threshold(delta, BIG_G) + 0.01
    if below < alpha < above:
        return below if alpha - below < above - alpha else above
    return alpha


def stratified_alphas(rng, count: int, lo: float = 0.02, hi: float = 0.5 * math.pi - 0.02) -> list:
    """One uniform draw in each of ``count`` equal cells of (lo, hi)."""
    width = (hi - lo) / count
    return [lo + (k + rng.uniform()) * width for k in range(count)]


# ------------------------------------------------------------ oracle_pairs

ORACLE_STEPS = 41
#: validate costs a third of a six-pair scan per point, so three times the points
#: give both task kinds the same cost and task_p50_s one group to sit in
VALIDATE_STEPS = 3 * (ORACLE_STEPS - 1) + 1
ORACLE_TMAX = 4.0 * math.pi / BIG_G
ORACLE_TASKS = 40  # half six-pair scans, half validations
#: one long oracle scan of pair AB per round: its 16 x 8001 phase matrix and the
#: temporaries of evolve_grid (about 7 MB) set the round's peak memory.  It is
#: untimed: a 0.9 s call is too long for the calibrations at its two ends to
#: follow the machine's speed through it (see worker.py)
LONG_SCAN_STEPS = 8001


def oracle_pairs(rng, workdir: Path) -> list:
    times = np.linspace(0.0, ORACLE_TMAX, ORACLE_STEPS)
    ops = []
    for k in range(ORACLE_TASKS):
        family = ("psi", "phi")[rng.integers(2)]
        alpha = float(rng.uniform(0.02, 0.5 * math.pi - 0.02))
        delta = float(DELTAS[rng.integers(len(DELTAS))])
        c = ref.constants(delta, BIG_G, NU)
        if k % 2 == 0:
            def run(family=family, alpha=alpha, delta=delta):
                return dj.scan_pairs(init(family, alpha), params(delta), dj.ALL_PAIRS,
                                     ORACLE_TMAX, ORACLE_STEPS)

            def check(out, family=family, alpha=alpha, c=c):
                for series in out.values():
                    checks.close(series.times, times, 1e-12, "scan grid")
                checks.pair_series(family, alpha, c, times, {name: s.values for name, s in out.items()})

            ops.append(Op("scan_pairs", run, check, values=6 * ORACLE_STEPS))
        else:
            def run(family=family, alpha=alpha, delta=delta):
                return dj.validate(init(family, alpha), params(delta), ORACLE_TMAX, VALIDATE_STEPS)

            def check(report):
                checks.require(report.passed, f"validate failed: {report.to_dict()}")
                checks.require(report.samples == VALIDATE_STEPS, "validate sample count")
                checks.require(report.max_abs_error <= 1e-9, f"validate error {report.max_abs_error!r}")

            ops.append(Op("validate", run, check, values=VALIDATE_STEPS))
    ops.append(long_scan_op(rng))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    # probe points of the sqrt(rho) fault in wootters_concurrence (see probes.py)
    for probe in json.loads((HERE / "probes.json").read_text())["probes"]:
        ops.append(probe_op(probe))
    return ops


def long_scan_op(rng) -> Op:
    family = ("psi", "phi")[rng.integers(2)]
    alpha = float(rng.uniform(0.02, 0.5 * math.pi - 0.02))
    delta = float(DELTAS[rng.integers(len(DELTAS))])
    c = ref.constants(delta, BIG_G, NU)
    times = np.linspace(0.0, ORACLE_TMAX, LONG_SCAN_STEPS)

    def run():
        return dj.scan(init(family, alpha), params(delta), dj.ATOM_PAIR, ORACLE_TMAX, LONG_SCAN_STEPS,
                       dj.Source.ORACLE)

    def check(series):
        checks.close(series.times, times, 1e-12, "scan grid")
        checks.close(series.values, ref.six_pairs(family, alpha, c, times)["AB"], checks.PAIR_TOL, "pair AB")
        checks.close(series.values, ref.atom_concurrence(family, alpha, c, times), checks.ATOM_TOL,
                     "pair AB vs C(t)")

    return Op("long_scan", run, check, timed=False)


def probe_op(p: dict) -> Op:
    def run():
        state0 = dj.initial_state_vector(init(p["family"], p["alpha"]), 1)
        propagator = dj.Propagator(dj.build_hamiltonian(params(p["delta"], p["G"]), 1))
        return dj.pair_concurrence(propagator.evolve(state0, p["t"]), dj.SubsystemPair.from_name(p["pair"]))

    truth = []

    def mp_truth():
        if not truth:
            truth.append(ref.mp_concurrence(p["family"], p["alpha"], p["delta"], p["G"],
                                            10.0 * p["G"], p["t"], p["pair"]))
        return truth[0]

    def check(value):
        checks.close(value, mp_truth(), checks.PROBE_TOL, f"probe {p['pair']} t={p['t']!r}")

    return Op("probe", run, check, timed=False, fault="wootters_sqrt_rho",
              signature=lambda value: checks.probe_fault(value, mp_truth()))


# ------------------------------------------------------------- death_sweep

SWEEP_STEPS = 1001
#: alphas per detuning in one task; every task sweeps all four detunings
SWEEP_ALPHAS = 3
PHI_TASKS, PSI_TASKS = 36, 4
#: windows narrower than three grid spacings: alpha = alpha_c(delta) - 1e-5 on 2001 points of [0, 4 pi]
NARROW_DELTAS = (0.5, 1.0, 2.0)
NARROW_STEPS = 2001


def sweep_op(family: str, grids: list, steps: int = SWEEP_STEPS, fault=None) -> Op:
    """alpha-sweeps of one family over ``steps`` points, one per (delta, alphas, t_max) in ``grids``."""
    def run():
        return [dj.sweep_alpha(dj.StateFamily(family), params(delta), alphas, t_max, steps)
                for delta, alphas, t_max in grids]

    def each_report(results, check_report):
        for (delta, alphas, t_max), result in zip(grids, results, strict=True):
            checks.require([a for a, _ in result] == alphas, "sweep alpha grid")
            for alpha, report in result:
                check_report(alpha, delta, t_max, report)
                checks.close(report.initial_concurrence, abs(math.sin(2.0 * alpha)), 1e-12,
                             "initial concurrence")

    def check(results):
        each_report(results, lambda alpha, delta, t_max, report: checks.death_report(
            family, alpha, delta, BIG_G, t_max, report.dead_intervals, report.period, checks.EDGE_TOL))

    def signature(results):
        each_report(results, lambda alpha, delta, t_max, report: checks.narrow_window_fault(
            family, alpha, delta, BIG_G, t_max, report, t_max / (steps - 1)))

    values = sum(len(alphas) for _, alphas, _ in grids) * steps
    return Op(f"sweep_{family}", run, check, values=values, fault=fault,
              signature=signature if fault else None)


def death_sweep(rng, workdir: Path) -> list:
    """Alpha-sweeps with alphas stratified across the round.

    Per family, detuning and part k of SWEEP_ALPHAS equal parts of
    (0.02, pi/2 - 0.02), the round has one alpha in each of (tasks) equal
    cells of that part.  Task i takes cell perm_k(i) at the first and third
    detunings and the mirrored cell at the second and fourth, so a task with
    a small alpha, and a long dead time, at one detuning has a large alpha at
    the next.  Every seed thus gives a round of about the same dead time, made
    of tasks of about the same dead time, which set the round's cost and its
    median task.
    """
    ops = []
    for family, count in (("phi", PHI_TASKS), ("psi", PSI_TASKS)):
        cells = {delta: np.reshape(stratified_alphas(rng, SWEEP_ALPHAS * count), (SWEEP_ALPHAS, count))
                 for delta in DELTAS}
        perms = [rng.permutation(count) for _ in range(SWEEP_ALPHAS)]
        for i in range(count):
            grids = []
            for n, delta in enumerate(DELTAS):
                t_max = two_periods(delta)
                alphas = [float(cells[delta][k][perms[k][i] if n % 2 == 0 else count - 1 - perms[k][i]])
                          for k in range(SWEEP_ALPHAS)]
                if family == "phi":
                    alphas = [clear_of_threshold(a, delta, t_max / (SWEEP_STEPS - 1)) for a in alphas]
                grids.append((delta, alphas, t_max))
            ops.append(sweep_op(family, grids))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    for delta in NARROW_DELTAS:
        alpha = ref.death_threshold(delta, BIG_G) - 1e-5
        ops.append(sweep_op("phi", [(delta, [alpha], 4.0 * math.pi)], NARROW_STEPS,
                            fault="detect_death_narrow_window"))
    return ops


# ------------------------------------------------------------- cli_session

CLI_SCAN_STEPS = 10001
CLI_CLOSED_STEPS = 1001
CLI_ORACLE_STEPS = 201
#: passes over the script in one round; each pass shifts every call's detuning
CLI_PASSES = 3


class CliScript:
    """Builds the in-process CLI calls of one round; outputs land in ``workdir``."""

    def __init__(self, rng, workdir: Path):
        self.rng, self.workdir, self.ops = rng, workdir, []

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def call(self, kind, settings: dict, check, values, outputs, config=None):
        """One ``doublejc <kind>`` call, its settings as flags or, with ``config``, from a file."""
        if config:
            lines = "".join(f"{key} = {value}\n" for key, value in settings.items())
            (self.workdir / config).write_text("# doublejc settings\n" + lines)
            argv = [kind, "--config", self.path(config)]
        else:
            argv = [kind] + [str(x) for key, value in settings.items() for x in (f"--{key}", value)]
        paths = tuple(self.path(name) for name in outputs)

        def run():
            return dj.cli.main(argv)

        def checked(code):
            checks.require(code == 0, f"doublejc {kind} exited {code}")
            texts = []
            for path in paths:
                with open(path, encoding="utf-8", newline="") as fh:
                    texts.append(fh.read())
            check(*texts)

        self.ops.append(Op(kind, run, checked, values=values, files=paths))

    def alpha(self) -> float:
        return float(self.rng.uniform(0.02, 0.5 * math.pi - 0.02))

    def constants(self, name: str, physical: bool, config=None):
        if physical:
            g, nu = float(self.rng.uniform(0.25, 1.0)), float(self.rng.uniform(5.0, 20.0))
            omega = nu + float(self.rng.uniform(-2.0, 2.0))
            settings = {"omega": repr(omega), "nu": repr(nu), "g": repr(g), "format": "json"}
            delta, big_g = omega - nu, 2.0 * g
        else:
            delta, big_g = float(self.rng.uniform(-2.0, 2.0)), float(self.rng.uniform(0.5, 2.0))
            settings = {"delta": repr(delta), "G": repr(big_g)}
        settings["out"] = self.path(name)

        def check(text):
            if physical:
                table = checks.parse_json(text)
            else:
                table = {k: float(v) for k, v in (line.split(" = ") for line in text.strip().split("\n"))}
            checks.constants_table(table, delta, big_g)

        self.call("constants", settings, check, 0, [name], config)

    def scan(self, family, delta, fmt, name, plot_script=None, config=None):
        """Closed-form scan with many steps."""
        alpha, t_max = self.alpha(), float(self.rng.uniform(5.0, 15.0))
        times = np.linspace(0.0, t_max, CLI_SCAN_STEPS)
        expected = ref.atom_concurrence(family, alpha, ref.constants(delta, BIG_G, NU), times)
        settings = {"family": family, "alpha": repr(alpha), "delta": repr(delta), "G": repr(BIG_G),
                    "tmax": repr(t_max), "steps": CLI_SCAN_STEPS, "format": fmt, "out": self.path(name)}
        outputs = [name]
        if plot_script:
            settings["plot-script"] = self.path(plot_script)
            outputs.append(plot_script)

        def check(text, *scripts):
            if fmt == "csv":
                header, data = checks.parse_csv(text)
                checks.require(header == ["t", "AB"], f"scan header {header}")
                got_times, got = data[:, 0], data[:, 1]
            else:
                payload = checks.parse_json(text)
                got_times, got = payload["times"], payload["concurrence"]["AB"]
            checks.close(got_times, times, 1e-12, "scan times")
            checks.close(got, expected, checks.ATOM_TOL, "scan AB")
            for script in scripts:
                checks.require(self.path(name) in script and script.rstrip().split("\n")[-1].startswith("plot "),
                               "gnuplot script")

        self.call("scan", settings, check, CLI_SCAN_STEPS, outputs, config)

    def death(self, family, delta, source, steps, config=None):
        t_max = two_periods(delta)
        dt = t_max / (steps - 1)
        if family == "phi":  # one that dies
            alpha = clear_of_threshold(float(self.rng.uniform(0.05, ref.death_threshold(delta, BIG_G))), delta, dt)
        else:
            alpha = self.alpha()
        name = f"death_{family}_{source}.json"
        settings = {"family": family, "alpha": repr(alpha), "delta": repr(delta), "G": repr(BIG_G),
                    "tmax": repr(t_max), "steps": steps, "source": source, "out": self.path(name)}
        tol = checks.EDGE_TOL if source == "closed" else dt

        def check(text):
            payload = checks.parse_json(text)
            checks.death_report(family, alpha, delta, BIG_G, t_max, payload["dead_intervals"],
                                payload["period"], tol)

        self.call("death", settings, check, steps, [name], config)

    def sweep(self, family, delta, source, steps, count, fmt, config=None):
        """alpha-sweep over both sides of alpha_c."""
        t_max = two_periods(delta)
        dt = t_max / (steps - 1)
        alphas = stratified_alphas(self.rng, count)
        if family == "phi":
            alphas = [clear_of_threshold(a, delta, dt) for a in alphas]
        name = f"sweep_{family}_{source}.{fmt}"
        settings = {"family": family, "delta": repr(delta), "G": repr(BIG_G), "tmax": repr(t_max),
                    "steps": steps, "source": source, "format": fmt, "out": self.path(name),
                    "alphas": ",".join(repr(a) for a in alphas)}
        tol = checks.EDGE_TOL if source == "closed" else dt

        def check(text):
            if fmt == "json":
                reports = checks.parse_json(text)["reports"]
                checks.require([r["alpha"] for r in reports] == alphas, "sweep alpha grid")
                for r in reports:
                    checks.death_report(family, r["alpha"], delta, BIG_G, t_max, r["dead_intervals"],
                                        r["period"], tol)
                return
            # CSV: NaN edges mark an alpha without death
            _, data = checks.parse_csv(text, allow_nan=("first_death_start", "first_death_end"))
            checks.require(len(data) == len(alphas), "sweep rows")
            for row, alpha in zip(data, alphas):
                checks.close(row[0], alpha, 0.0, "sweep alpha")
                windows = ref.dead_windows(family, alpha, delta, BIG_G, t_max)
                checks.require(row[1] == len(windows),
                               f"alpha={alpha!r}: {row[1]} dead intervals, expected {len(windows)}")
                if windows:
                    checks.close(row[2:4], windows[0], tol, "first dead interval")
                else:
                    checks.require(bool(np.all(np.isnan(row[2:4]))), "edges of a live sweep")
                checks.close(row[4], sum(e - s for s, e in windows), 2 * len(windows) * tol, "total dead length")
                checks.close(row[5], abs(math.sin(2 * alpha)), 1e-12, "initial concurrence")

        self.call("sweep", settings, check, count * steps, [name], config)

    def validate(self, family, delta, config=None):
        name = f"validate_{family}.json"
        settings = {"family": family, "alpha": repr(self.alpha()), "delta": repr(delta), "G": repr(BIG_G),
                    "steps": CLI_ORACLE_STEPS, "out": self.path(name)}

        def check(text):
            payload = checks.parse_json(text)
            checks.require(payload["pass"] is True and payload["samples"] == CLI_ORACLE_STEPS,
                           f"validate report {payload}")

        self.call("validate", settings, check, CLI_ORACLE_STEPS, [name], config)


def cli_session(rng, workdir: Path) -> list:
    """The script, once per pass.

    Oracle death reports and scans cost about the same, and about as many
    calls cost less as cost more, so task_p50_s falls inside that group.
    """
    script = CliScript(rng, workdir)
    for n in range(CLI_PASSES):
        def delta(slot):
            return DELTAS[(slot + n) % len(DELTAS)]

        script.constants("const.txt", physical=False)
        script.constants("const.json", physical=True, config=f"constants{n}.cfg")
        script.scan("phi", delta(1), "csv", "scan_phi.csv")
        script.scan("psi", delta(2), "json", "scan_psi.json")
        script.scan("phi", delta(0), "csv", "scan_config.csv", plot_script="scan_config.gp", config=f"scan{n}.cfg")
        script.sweep("psi", delta(2), "closed", CLI_CLOSED_STEPS, 5, "json")
        script.death("phi", delta(0), "closed", CLI_CLOSED_STEPS)
        script.death("phi", delta(3), "closed", CLI_CLOSED_STEPS, config=f"death{n}.cfg")
        script.death("phi", delta(1), "oracle", CLI_ORACLE_STEPS)
        script.death("psi", delta(2), "oracle", CLI_ORACLE_STEPS)
        script.death("phi", delta(3), "oracle", CLI_ORACLE_STEPS, config=f"death_oracle{n}.cfg")
        script.death("psi", delta(0), "oracle", CLI_ORACLE_STEPS)
        script.sweep("phi", delta(0), "closed", CLI_CLOSED_STEPS, 8, "csv")
        script.sweep("phi", delta(2), "closed", CLI_CLOSED_STEPS, 5, "json", config=f"sweep{n}.cfg")
        script.sweep("phi", delta(1), "oracle", CLI_ORACLE_STEPS, 4, "json")
        script.sweep("psi", delta(3), "oracle", CLI_ORACLE_STEPS, 4, "json")
        script.validate("phi", delta(3))
        script.validate("psi", delta(1))
        script.validate("psi", delta(0), config=f"validate{n}.cfg")
    return script.ops


WORKLOADS = {"oracle_pairs": oracle_pairs, "death_sweep": death_sweep, "cli_session": cli_session}


def build(name: str, seed: int, workdir: Path) -> list:
    """The operations of one round of workload ``name``, drawn from ``seed``."""
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](rng, workdir)

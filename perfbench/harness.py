"""Workloads, timed operations and output checks of the benchmark.

An operation is one `design.run` call or one `sweep-power` command run
in-process through `cli.main`. A workload is a fixed list of operations
built from the benchmark seed; the runner makes passes over it, times
every operation, checks its output outside the timed region, and
records the quality references (omnidirectional sum-CRLB, MUSIC
Monte-Carlo) outside it too.

Import this module only after the BLAS thread variables are set.
"""

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from isacbeam import cli, config, design, manifold, radar, rcg
from isacbeam.errors import ConfigError, InfeasibleError, NumericalError

# Raised by design or by the sweep command: the operation failed, the run goes on.
TYPED_ERRORS = (ConfigError, InfeasibleError, NumericalError)

PAPER_MODES = ("sgcdf", "no_dedicated_stream", "sensing_only")
STAGE_II_MODES = ("sgcdf", "no_dedicated_stream")
SWEEP_GRID_DBM = (0.0, 10.0, 20.0)
SWEEP_MODES = ("sgcdf", "omnidirectional")
SWEEP_TRIALS = 40

# Untimed MUSIC check on design workloads: the first designs of the
# scenario list, whatever order the seed runs them in.
MC_DESIGNS = 6
MC_TRIALS = 16

# Tight-tolerance reference for rcg.crlb_gap_pct (traced runs only).
GAP_SCENARIOS = 2
GAP_EPS = 1e-9


def scenario_ini(num_tx=32, num_users=6, snapshots=1024):
    """INI text of the default geometry at the given array size."""
    return (
        "[scenario]\n"
        f"num_tx = {num_tx}\n"
        f"num_rx = {num_tx}\n"
        f"num_users = {num_users}\n"
        "target_angles_deg = -45.0, 30.0, 60.0\n"
        "target_ranges_m = 50.0, 60.0, 70.0\n"
        "noise_power_dbm = -96.0\n"
        "power_budget_dbm = 20.0\n"
        f"snapshots = {snapshots}\n"
        "\n[experiment]\n"
        f"power_grid_dbm = {', '.join(repr(p) for p in SWEEP_GRID_DBM)}\n"
        f"trials = {SWEEP_TRIALS}\n")


@dataclass
class Op:
    kind: str                 # design mode, or "sweep"
    scenario: object = None   # design operations
    seed: int = 0             # scenario seed of a sweep
    monte_carlo: bool = False  # run the untimed MUSIC check on this design


class _FixedDesigns:
    """The same designs for every benchmark seed, which only sets their order.

    Design time varies up to five-fold between scenarios and a run holds
    tens of designs at most, so scenarios drawn from the seed would not
    give repeatable times or quality ratios; the overloads cycle over the
    scenarios.
    """

    def __init__(self, seed, workdir):
        self.cfg = config.parse_config(scenario_ini(self.num_tx, self.num_users))
        ops = []
        for i, s in enumerate(self.scenario_seeds):
            sc = config.build_scenario(self.cfg, seed=s,
                                       overload=self.overloads[i % len(self.overloads)])
            ops += [Op(mode, sc) for mode in self.modes]
        for op in ops[:MC_DESIGNS]:
            op.monte_carlo = True
        order = np.random.default_rng(seed).permutation(len(ops))
        self.ops = [ops[i] for i in order]


class DesignPaper(_FixedDesigns):
    """Paper operating point: scenario seeds 1-8 at overload 0.3 / 0.7,
    each in three modes."""
    name = "design_paper"
    num_tx, num_users, overloads = 32, 6, (0.3, 0.7)
    scenario_seeds = tuple(range(1, 9))
    modes = PAPER_MODES


class DesignTight(_FixedDesigns):
    """sgcdf at overload 0.95 on scenario seeds 1-10, stalls included."""
    name = "design_tight"
    num_tx, num_users, overloads = 32, 6, (0.95,)
    scenario_seeds = tuple(range(1, 11))
    modes = ("sgcdf",)


class DesignLarge(_FixedDesigns):
    """M_T = M_R = 128, K = 16, overload 0.7, on the default seed 1."""
    name = "design_large"
    num_tx, num_users, overloads = 128, 16, (0.7,)
    scenario_seeds = (1,)
    modes = ("sgcdf", "sensing_only")


class SweepMc:
    """`sweep-power` commands on scenario seeds 1 and 2; the benchmark seed
    sets their order."""
    name = "sweep_mc"
    scenario_seeds = (1, 2)

    def __init__(self, seed, workdir):
        self.ini = workdir / f"sweep_mc-{seed}.ini"
        self.ini.write_text(scenario_ini())
        self.csv = workdir / f"sweep_mc-{seed}.csv"
        self.cfg = config.load_config(self.ini)
        order = np.random.default_rng(seed).permutation(len(self.scenario_seeds))
        self.ops = [Op("sweep", seed=self.scenario_seeds[i]) for i in order]

    def argv(self, op):
        return ["sweep-power", "--config", str(self.ini), "--mode", ",".join(SWEEP_MODES),
                "--seed", str(op.seed), "--out", str(self.csv)]


WORKLOADS = {w.name: w for w in (DesignPaper, DesignTight, DesignLarge, SweepMc)}


# Calibration: a fixed numpy kernel, independent of the library, timed
# before, during and after each pass. Shared hosts slow this machine by
# up to 40% for seconds to minutes at a time; scaling the times of a pass
# by CALIBRATION_S over the median kernel time around it cancels most of
# that drift. The kernel mixes the two
# kinds of work the workloads do: small complex products and eigensolves
# in a Python loop (solver steps), and a tall QR plus a grid scan over a
# 4.6 MB steering matrix (probe synthesis and MUSIC). CALIBRATION_S is its
# time on a quiet 2-vCPU 2.1 GHz Xeon VM, so scaled times read as seconds
# on that machine.
CALIBRATION_S = 0.08
CALIBRATION_EVERY_S = 2.0


class Gauge:
    """Interleaved calibration samples and the speed factor they give."""

    def __init__(self):
        rng = np.random.default_rng(0)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._small = cn(32, 38)
        self._tall = cn(1024, 38)
        self._grid = cn(32, 9001)
        self._basis = cn(29, 32)
        self.samples = []
        self._last = -math.inf
        self._mark = 0

    def _kernel(self):
        x = self._small
        for _ in range(400):
            np.linalg.eigvalsh(x @ x.conj().T)
            x = x * (1.0 / np.linalg.norm(x, axis=1))[:, None]
        for _ in range(8):
            np.linalg.qr(self._tall)
            (np.abs(self._basis.conj() @ self._grid) ** 2).sum(axis=0)

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def sample_if_due(self):
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def start(self):
        """Open a stretch of measurements with a sample."""
        self.sample()
        self._mark = len(self.samples) - 1

    def factor(self):
        """Close the stretch with a sample; multiply a time measured in it by
        the returned factor to express it at calibration speed."""
        self.sample()
        return CALIBRATION_S / statistics.median(self.samples[self._mark:])


def warm_up(workload):
    """Fill lazy state before timing: first-call library paths, and the
    MUSIC grid cache at the workload's receive array size."""
    tiny = config.build_scenario(config.parse_config(scenario_ini(8, 2, snapshots=64)), seed=1)
    radar.monte_carlo(tiny, design.run(tiny, mode="sgcdf"), 1)
    sc = config.build_scenario(workload.cfg, seed=1)
    radar.monte_carlo(sc, design.run(sc, mode="omnidirectional"), 1)


def setup(name, seed, workdir):
    workload = WORKLOADS[name](seed, workdir)
    warm_up(workload)
    return workload


def check_design(scenario, result):
    """Problems with a design's output; empty when it is correct."""
    problems = []
    if not manifold.is_on_manifold(result.w, scenario.row_radius):
        problems.append("rows of W off the manifold")
    if result.mode in STAGE_II_MODES and \
            result.rates.min_rate < result.r_min - design.RATE_SLACK:
        problems.append(f"min rate {result.rates.min_rate!r} below floor {result.r_min!r}")
    if result.mode == "no_dedicated_stream" and np.any(result.w[:, scenario.num_users:] != 0):
        problems.append("sensing columns not zero in no_dedicated_stream")
    if not (math.isfinite(result.sum_crlb) and result.sum_crlb > 0):
        problems.append(f"sum-CRLB {result.sum_crlb!r} not finite and positive")
    return problems


def check_sweep(text):
    """(problems, rows) of a sweep-power CSV."""
    _, header, rows = cli.read_csv(text)
    problems = []
    if header != cli.SWEEP_POWER_HEADER:
        problems.append(f"header {header} is not {cli.SWEEP_POWER_HEADER}")
    expected = len(SWEEP_GRID_DBM) * len(SWEEP_MODES)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    mode_col = cli.SWEEP_POWER_HEADER.index("mode")
    for row in rows:
        cells = [c for i, c in enumerate(row) if i != mode_col]
        try:
            finite = all(math.isfinite(float(c)) for c in cells)
        except ValueError:
            finite = False
        if not finite or len(row) != len(cli.SWEEP_POWER_HEADER):
            problems.append(f"malformed or non-finite row {row}")
    return problems, rows


@dataclass
class Ledger:
    """Operations attempted and failed; output problems make the run incorrect."""
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def typed_failure(self, label):
        self.attempted += 1
        self.failed += 1
        self.errors[label] = self.errors.get(label, 0) + 1

    def checked(self, problems):
        """Count one completed operation; True when its output is correct."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def correct(self):
        return not self.problems


@dataclass
class Quality:
    """Untimed quality references of the successful operations."""
    crlb_vs_omni: list = field(default_factory=list)
    rmse_over_rcrlb: list = field(default_factory=list)
    _omni: dict = field(default_factory=dict)

    def add_design(self, scenario, result, monte_carlo):
        key = id(scenario)   # the workload keeps every scenario alive
        if key not in self._omni:
            self._omni[key] = design.run(scenario, mode="omnidirectional").sum_crlb
        self.crlb_vs_omni.append(result.sum_crlb / self._omni[key])
        if monte_carlo:
            report = radar.monte_carlo(scenario, result, MC_TRIALS)
            self.rmse_over_rcrlb.append(report.rmse / report.rcrlb)

    def add_sweep(self, rows):
        col = {name: i for i, name in enumerate(cli.SWEEP_POWER_HEADER)}
        by_power = {}
        for row in rows:
            by_power.setdefault(row[col["p_max_dbm"]], {})[row[col["mode"]]] = \
                float(row[col["sum_crlb"]])
            self.rmse_over_rcrlb.append(float(row[col["rmse_deg"]]) / float(row[col["rcrlb_deg"]]))
        for crlbs in by_power.values():
            self.crlb_vs_omni.append(crlbs["sgcdf"] / crlbs["omnidirectional"])


def run_op(workload, op, ledger, quality=None, tracer=None):
    """Time one operation, then check it outside the timed region.

    Returns the operation's wall time. Typed library errors and failed
    checks count as failures; any other exception propagates.
    """
    span = tracer.span(f"op.{op.kind}") if tracer is not None else nullcontext()
    if op.kind == "sweep":
        workload.csv.unlink(missing_ok=True)
    error = None
    with span:
        t0 = time.perf_counter()
        try:
            if op.kind == "sweep":
                result = cli.main(workload.argv(op))
            else:
                result = design.run(op.scenario, mode=op.kind)
        except TYPED_ERRORS as exc:
            error = exc
        elapsed = time.perf_counter() - t0
    if error is not None:
        ledger.typed_failure(type(error).__name__)
    elif op.kind == "sweep":
        if result != 0:
            ledger.typed_failure(f"exit code {result}")
        else:
            problems, rows = check_sweep(workload.csv.read_text())
            if ledger.checked(problems) and quality is not None:
                quality.add_sweep(rows)
    elif ledger.checked(check_design(op.scenario, result)) and quality is not None:
        quality.add_design(op.scenario, result, op.monte_carlo)
    return elapsed


def crlb_gap_pct():
    """Relative sum-CRLB excess, in percent, of default-tolerance stage-I
    designs over eps=1e-9 re-solves, on the first design_paper scenarios."""
    cfg = config.parse_config(scenario_ini())
    gaps = []
    for i, s in enumerate(DesignPaper.scenario_seeds[:GAP_SCENARIOS]):
        sc = config.build_scenario(cfg, seed=s, overload=DesignPaper.overloads[i % 2])
        loose = design.run(sc, mode="sensing_only").sum_crlb
        tight = design.run(sc, mode="sensing_only", opts=rcg.RcgOptions(eps=GAP_EPS)).sum_crlb
        gaps.append(100.0 * (loose / tight - 1.0))
    return statistics.mean(gaps)

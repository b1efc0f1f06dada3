"""Experiment runner: noise/variant grids, best-iterate selection, profiles, CSV.

Grid runs execute on a bounded worker pool and are re-sorted canonically
before anything is written, so identical configs produce byte-identical
CSV.  Floats serialize with 17 significant digits and round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .driver import (
    EARLY_INFEASIBLE,
    EARLY_STATIONARY,
    EXACTNESS,
    OPTIMISMS,
    SCHEMES,
    IterRecord,
    SolverParams,
    solve,
)
from .linalg import (Rule, check_settings, entries, interval, least_squares_multiplier,
                     list_of, norm_inf, number, one_of)
from .noise import EPS_MAX, NoiseSpec, derive_gradient_noise
from .problems import duplicate_last_constraint, get_problem

EARLY_STATUSES = (EARLY_STATIONARY, EARLY_INFEASIBLE)

# status of a grid cell whose run raised; its counts are 0 and its errors inf
ERROR = "error"


@dataclass(frozen=True)
class VariantSpec:
    scheme: str = one_of("ada", SCHEMES)
    optimism: str = one_of("opt", OPTIMISMS)
    exactness: str = one_of("inexact", EXACTNESS)
    kappa: float = number(SolverParams.kappa, "(0, inf)")

    __post_init__ = check_settings

    @property
    def label(self) -> str:
        return f"{self.scheme}-{self.optimism}-{self.exactness}"

    def solver_params(self, noise: NoiseSpec, budgets) -> SolverParams:
        return SolverParams(
            noise=noise,
            variant=SCHEMES[self.scheme],
            optimism=OPTIMISMS[self.optimism],
            exactness=self.exactness,
            kappa=self.kappa,
            max_iters=budgets[0],
            max_weighted_evals=budgets[1],
        )


@dataclass
class ExperimentConfig:
    """One run per problem, noise pair, variant and seed: a repeated entry, or two variants
    of one label (the CSV has no kappa), would write two rows for one instance and solver."""

    problems: list = list_of(Rule(lambda v: isinstance(v, str), "a string"), key=str)
    noise_grid: list = list_of(entries(interval(f"(0, {EPS_MAX!r}]"), 2),
                               what="noise grid entries (eps_f, eps_c)", key=tuple)
    variants: list = list_of(Rule(lambda v: isinstance(v, VariantSpec),
                                  "a VariantSpec of its own label"), key=lambda v: v.label)
    seeds: list = list_of(interval("[0, inf)", integer=True), key=int)
    budgets: tuple = list_of(interval("[1, inf)", integer=True), 2,
                             default=(SolverParams.max_iters, SolverParams.max_weighted_evals))
    licq_mode: str = one_of("original", ("original", "duplicated"))
    out_dir: str = "."

    validate = check_settings  # each field against its declared rule; returns self

    @classmethod
    def from_json(cls, text: str):
        """A validated config; a top-level value that is not an object, an unknown
        or missing key and a field of the wrong shape are each a ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a grid config must be a JSON object, got {data!r}")
        try:  # a TypeError names an unknown or missing key, or a variant's
            config = cls(**data)
            if isinstance(config.variants, list):
                config.variants = [VariantSpec(**v) if isinstance(v, dict) else v
                                   for v in config.variants]
        except TypeError as exc:
            raise ValueError(f"bad config: {exc}") from None
        return config.validate()


@dataclass
class RunRecord:
    problem: str
    variant: str
    optimism: str
    exactness: str
    eps_f: float
    eps_c: float
    seed: int
    licq_mode: str
    status: str
    iters: int
    weighted_evals: int
    minres_iters: int
    cg_iters: int
    best_feas_err: float
    best_stat_err: float
    best_infeas_stat_err: float
    terminated_early: bool
    solved: bool

    def sort_key(self):
        return (self.problem, self.variant, self.optimism, self.exactness,
                self.eps_f, self.eps_c, self.seed, self.licq_mode)

    @property
    def solver(self) -> str:
        """Performance-profile solver label, e.g. ``ada-opt-inexact``."""
        return f"{self.variant}-{self.optimism}-{self.exactness}"

    @property
    def instance(self) -> tuple:
        """Performance-profile problem instance."""
        return (self.problem, self.eps_f, self.eps_c, self.seed, self.licq_mode)


# one CSV column per RunRecord field, in field order; a cell parses by the
# field's annotation (bools are written "true"/"false")
CSV_COLUMNS = [f.name for f in fields(RunRecord)]
_PARSE = {"str": str, "int": int, "float": float, "bool": lambda text: text == "true"}


@np.errstate(over="ignore", invalid="ignore")
def best_iterate(trace, eps_c: float, eps_f: float):
    """Pick the reported iterate from a trace per the benchmark rule.

    Among iterates with ||c||_inf <= 2 max{eps_c, eps_f} (exact snapshots,
    least-squares multipliers) the one with the lowest stationarity error
    wins; with no qualifying iterate, the lowest feasibility error wins.
    Iterates after an early termination never participate; ties break to
    the smallest index, and a NaN error (from a non-finite evaluation)
    never beats a number.  The multipliers come from one stacked
    `least_squares_multiplier` call per chunk of the trace's table
    (`RunTrace.chunks`), on the chunk's exact ``g``, ``c`` and ``J`` fields in place.
    """
    feas, stat, y_inf = [], [], []
    for rows in trace.chunks():
        g, c, J = rows["g"], rows["c"], rows["J"]
        y = least_squares_multiplier(J, g)
        feas.append(abs(c).max(axis=1))
        stat.append(abs(g + (J.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]).max(axis=1))
        y_inf.append(abs(y).max(axis=1))
    feas, stat, y_inf = np.concatenate(feas), np.concatenate(stat), np.concatenate(y_inf)
    qualified = np.flatnonzero(feas <= 2.0 * max(eps_c, eps_f))
    if qualified.size:
        key, among = stat[qualified], qualified
    else:
        key, among = feas, np.arange(trace.size)
    # argmin returns the first minimum
    idx = int(among[np.argmin(np.where(np.isnan(key), np.inf, key))])
    best = IterRecord(trace, idx).exact
    infeas_stat = norm_inf(best.J.T @ best.c)
    return idx, float(feas[idx]), float(stat[idx]), infeas_stat, float(y_inf[idx])


def success(feas_err: float, stat_err: float, y_inf_norm: float,
            eps: NoiseSpec) -> bool:
    """Approximate-stationarity criterion at the reported iterate."""
    return (feas_err <= 2.0 * max(eps.eps_c, eps.eps_f)
            and stat_err <= 2.0 * (eps.eps_g + y_inf_norm * eps.eps_J))


def run_single(problem_name: str, variant: VariantSpec, eps_f: float,
               eps_c: float, seed: int, licq_mode: str,
               budgets=ExperimentConfig.budgets) -> RunRecord:
    """One grid cell: solve, select the best iterate, summarize."""
    problem = get_problem(problem_name)
    if licq_mode == "duplicated":
        problem = duplicate_last_constraint(problem)
    eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
    noise = NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)
    params = variant.solver_params(noise, budgets)
    trace = solve(problem, params, seed)
    if trace.size:
        _, feas, stat, infeas_stat, y_inf = best_iterate(trace, eps_c, eps_f)
    else:
        # budget exhausted before the first full iteration
        feas = stat = infeas_stat = float("inf")
        y_inf = 0.0
    return _cell_row(
        problem_name, variant, eps_f, eps_c, seed, licq_mode, status=trace.status,
        iters=trace.size, weighted_evals=trace.counters.weighted_total,
        minres_iters=trace.minres_iters, cg_iters=trace.cg_iters, best_feas_err=feas,
        best_stat_err=stat, best_infeas_stat_err=infeas_stat,
        terminated_early=trace.status in EARLY_STATUSES,
        solved=trace.status == EARLY_STATIONARY or success(feas, stat, y_inf, noise))


def _cell_row(problem_name, variant, eps_f, eps_c, seed, licq_mode, **results) -> RunRecord:
    """A grid cell's row: the cell's eight identity columns, then ``results``."""
    return RunRecord(problem=problem_name, variant=variant.scheme, optimism=variant.optimism,
                     exactness=variant.exactness, eps_f=eps_f, eps_c=eps_c, seed=seed,
                     licq_mode=licq_mode, **results)


def _run_cell(task):
    """One grid cell; a run that raises is logged and becomes an ``error`` row."""
    try:
        return run_single(*task)
    except Exception:
        import logging  # loaded only once a cell fails

        problem_name, variant, eps_f, eps_c, seed, licq_mode, _ = task
        logging.getLogger(__name__).exception(
            "grid cell %s %s eps=(%g, %g) seed %d %s raised",
            problem_name, variant.label, eps_f, eps_c, seed, licq_mode)
        return _cell_row(*task[:6], status=ERROR, iters=0, weighted_evals=0, minres_iters=0,
                         cg_iters=0, best_feas_err=np.inf, best_stat_err=np.inf,
                         best_infeas_stat_err=np.inf, terminated_early=False, solved=False)


def run_grid(config: ExperimentConfig, max_workers: int | None = None):
    """Run the full grid concurrently, write results.csv, return the records.

    One record per (problem x variant x noise x seed); per-run failures are
    recorded as statuses, and a run that raises as an ``error`` row, so no
    cell aborts the grid.
    """
    config.validate()
    for name in config.problems:
        get_problem(name)  # unknown names are config errors, not run failures
    tasks = [
        (p, v, eps_f, eps_c, s, config.licq_mode, config.budgets)
        for p in config.problems
        for v in config.variants
        for (eps_f, eps_c) in config.noise_grid
        for s in config.seeds
    ]
    if max_workers is None:
        # the CPUs this process may run on, not every CPU of the machine
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        max_workers = min(usable, 8)
    if max_workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded on first pooled grid

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(_run_cell, tasks))
    else:
        records = [_run_cell(t) for t in tasks]
    records.sort(key=RunRecord.sort_key)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "results.csv")
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))
    return records, path


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def _cell(f, text: str):
    if f.type == "bool" and text not in ("true", "false"):  # "True", "1" or ""
        raise ValueError(f"{f.name} must be true or false, got {text!r}")
    return _PARSE[f.type](text)


def records_from_csv(text: str):
    """RunRecords from ``records_to_csv`` text; a missing column raises KeyError, and a
    row with more or fewer cells than the header or a cell its field's type cannot read
    (a bool other than true or false) ValueError."""
    lines = csv.reader(io.StringIO(text))
    header = next(lines, [])
    records = []
    for cells in filter(None, lines):  # a blank line holds no row
        if len(cells) != len(header):
            raise ValueError(f"line {lines.line_num} has {len(cells)} cells, not {len(header)}")
        row = dict(zip(header, cells))
        records.append(RunRecord(**{f.name: _cell(f, row[f.name]) for f in fields(RunRecord)}))
    return records


@dataclass(eq=False)
class ProfileTable:
    """Dolan-More data: costs and ratios as instances x solvers matrices (NaN and inf
    for a failed or missing run) and one rho curve per solver, sampled on ``tau_grid``."""

    solvers: list
    instances: list
    costs: np.ndarray
    ratios: np.ndarray
    tau_grid: np.ndarray
    curves: np.ndarray

    def rho(self, solver: str, tau):
        """The share of instances whose ratio is at most ``tau`` (a scalar or an array)."""
        ratios = np.sort(self.ratios[:, self.solvers.index(solver)])
        return np.searchsorted(ratios, tau, side="right") / len(self.instances)


def performance_profile(records, cost_field: str = "weighted_evals") -> ProfileTable:
    """Build Dolan-More performance profiles over the run records.

    A failed or missing run, or a cost above an instance's best cost of 0, has ratio
    inf; a curve never exceeds its solver's solved fraction.  Each curve is sampled at
    64 ratios from 1 to the largest finite ratio.  Needs 2 solvers, and at most one
    record per instance and solver.
    """
    if cost_field not in ("weighted_evals", "minres_iters"):
        raise ValueError(f"bad cost_field {cost_field!r}")
    solvers = sorted({r.solver for r in records})
    if len(solvers) < 2:
        raise ValueError("performance profile needs >= 2 solvers")
    instances = sorted({r.instance for r in records})

    row = {inst: i for i, inst in enumerate(instances)}
    col = {s: j for j, s in enumerate(solvers)}
    costs = np.full((len(instances), len(solvers)), np.nan)
    ran = np.zeros(costs.shape, dtype=bool)
    for r in records:
        i, j = row[r.instance], col[r.solver]
        if ran[i, j]:
            raise ValueError(f"two records for solver {r.solver} on instance {r.instance}")
        ran[i, j] = True
        if r.solved:
            costs[i, j] = getattr(r, cost_field)

    best = np.fmin.reduce(costs, axis=1, keepdims=True)  # NaN only where a row has no cost
    ratios = np.divide(costs, best, out=np.full(costs.shape, np.inf), where=best > 0)
    ratios[costs == best] = 1.0
    ratios[np.isnan(costs)] = np.inf

    r_max = max(ratios[np.isfinite(ratios)].max(initial=1.0), 1.0 + 1e-12)
    table = ProfileTable(solvers=solvers, instances=instances, costs=costs, ratios=ratios,
                         tau_grid=np.geomspace(1.0, r_max, 64), curves=None)
    table.curves = np.array([table.rho(s, table.tau_grid) for s in solvers])
    return table


def profile_to_tsv(table: ProfileTable) -> str:
    """Plot-ready rho curves: one tau column plus one column per solver."""
    lines = ["\t".join(["tau"] + table.solvers)]
    for tau, rhos in zip(table.tau_grid, table.curves.T):
        lines.append("\t".join(format(float(v), ".17g") for v in (tau, *rhos)))
    return "\n".join(lines) + "\n"


def costs_to_tsv(table: ProfileTable) -> str:
    """Per-instance cost table; failures serialize as empty cells, not sentinels."""
    lines = ["\t".join(["instance"] + table.solvers)]
    for inst, costs in zip(table.instances, table.costs):
        cells = ["" if np.isnan(c) else format(c, ".17g") for c in costs]
        lines.append("\t".join(["|".join(str(part) for part in inst)] + cells))
    return "\n".join(lines) + "\n"

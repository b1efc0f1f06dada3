"""The three workloads, their timed loops, and the output checks.

Every input comes from the workload seed: run ``i`` of a serial workload
solves cell ``i mod len(cells)`` with a solver seed drawn from
``SeedSequence([seed, workload, i])``, and grid call ``c`` uses one solver
seed drawn the same way.  The program only ever sees the generated inputs,
through its public entry points ``harness.run_single`` and
``harness.run_grid``.

Workloads (all inexact, kappa = 1e-2, both noise levels, derivative noise
from ``derive_gradient_noise``):

- ``grid``: repeated ``run_grid`` calls on the acceptance-criterion-2 shape
  (9 full-rank problems x {ada, ls} x {opt, pes} x 2 noise levels, one seed
  per call, budgets 1000/10000) on one worker per core.  The only workload
  that exercises the process pool, task chunking and the CSV writer.
- ``solve-long``: serial ``run_single`` calls, pessimistic {ada, ls} on four
  problems of different n + m, each also with a duplicated constraint
  (rank-deficient saddle systems).  Every run lasts 1000 iterations, so the
  per-iteration hot path does nearly all the work.
- ``solve-short``: serial ``run_single`` calls, optimistic {ada, ls} on all
  9 full-rank problems with an iteration budget of 150.  No adaptive run
  needs more than ~115 iterations; the cap bounds the two line-search cells
  (quad-ellipse, log-surface) that otherwise run to 1000, so per-run set-up
  and backtracking keep their share.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
import zlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from noisy_sqp import driver, harness, problems, verify
from noisy_sqp.harness import ExperimentConfig, VariantSpec
from noisy_sqp.noise import NoiseSpec, derive_gradient_noise

import tracer as tracing

NOISE_LEVELS = [(1e-2, 1e-2), (1e-4, 1e-4)]
KAPPA = 1e-2
LONG_PROBLEMS = ["quad-ellipse", "quad-linear-10", "rosenbrock-sphere-4", "unit-circle"]
BUDGETS = {"grid": (1000, 10000), "solve-long": (1000, 10000), "solve-short": (150, 10000)}

# Two-letter codes of (status, solved) used by the reference file.
STATUS_LETTERS = {
    "budget_iters": "B", "budget_evals": "E", "early_stationary": "S",
    "early_infeasible_stationary": "I", "degenerate_direction": "D",
    "line_search_failure": "L", "test_unsatisfiable": "T",
}
STATUSES = {getattr(driver, name) for name in (
    "BUDGET_ITERS", "BUDGET_EVALS", "EARLY_STATIONARY", "EARLY_INFEASIBLE",
    "DEGENERATE", "LINE_SEARCH_FAILURE", "TEST_UNSATISFIABLE") if hasattr(driver, name)}


def solver_seed(seed: int, workload: str, i: int) -> int:
    return int(np.random.SeedSequence([seed, zlib.crc32(workload.encode()), i])
               .generate_state(1)[0])


def full_rank_problems() -> list:
    return [p.name for p in problems.builtin_registry() if p.full_rank]


def variant(scheme: str, optimism: str) -> VariantSpec:
    return VariantSpec(scheme, optimism, "inexact", KAPPA)


def serial_cells(workload: str) -> list:
    """Cells (problem, scheme, optimism, eps_f, eps_c, licq_mode) in run order.
    A loop stops only after whole passes over this list, so it measures the
    same mix of problems, schemes, noise levels and licq modes however fast
    the program is."""
    if workload == "solve-long":
        names, optimism, modes = LONG_PROBLEMS, "pes", ("original", "duplicated")
    else:
        names, optimism, modes = full_rank_problems(), "opt", ("original",)
    return [(p, s, optimism, ef, ec, licq)
            for ef, ec in NOISE_LEVELS
            for licq in modes
            for s in ("ada", "ls")
            for p in names]


def serial_task(workload: str, cells: list, seed: int, i: int) -> tuple:
    """Positional arguments of ``harness.run_single`` for run ``i``."""
    p, s, o, ef, ec, licq = cells[i % len(cells)]
    return (p, variant(s, o), ef, ec, solver_seed(seed, workload, i), licq,
            BUDGETS[workload])


def grid_config(seed: int, call: int, out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        problems=full_rank_problems(),
        noise_grid=list(NOISE_LEVELS),
        variants=[variant(s, o) for s in ("ada", "ls") for o in ("opt", "pes")],
        seeds=[solver_seed(seed, "grid", call)],
        budgets=BUDGETS["grid"],
        out_dir=out_dir,
    ).validate()


def workers() -> int:
    """One worker per usable core, capped at 8 as run_grid's own default is."""
    return min(len(os.sched_getaffinity(0)), 8)


def setup(workload: str):
    """Everything a workload needs before its first timed run."""
    if workload == "grid":
        for name in full_rank_problems():
            harness.get_problem(name)
        grid_config(0, 0, ".")
        with ProcessPoolExecutor(max_workers=workers()) as pool:
            list(pool.map(abs, range(workers())))
        return
    for p, s, o, ef, ec, licq in serial_cells(workload):
        problem = harness.get_problem(p)
        if licq == "duplicated":
            problems.duplicate_last_constraint(problem)
        eps_g, eps_J = derive_gradient_noise(ef, ec)
        variant(s, o).solver_params(NoiseSpec(ef, eps_g, ec, eps_J), BUDGETS[workload])


# ---------------------------------------------------------------- checks


def code(status: str, solved: bool) -> str:
    return STATUS_LETTERS.get(status, "X") + ("1" if solved else "0")


def check_record(rec, budget_iters: int, kept=None) -> list:
    """Failures of one run record; empty when the output is correct.

    With the run's trace (``kept`` = (trace, params)) the best-iterate
    errors are recomputed and ``harness.success`` is re-applied exactly.
    Without it, ``solved`` is checked against the bounds that hold for any
    multiplier norm.
    """
    bad = []
    if rec.status not in STATUSES:
        bad.append(f"status {rec.status!r} is not a driver status")
    if not 0 <= rec.iters <= budget_iters:
        bad.append(f"iters {rec.iters} outside [0, {budget_iters}]")
    eps_g, eps_J = derive_gradient_noise(rec.eps_f, rec.eps_c)
    spec = NoiseSpec(eps_f=rec.eps_f, eps_g=eps_g, eps_c=rec.eps_c, eps_J=eps_J)
    early = rec.status == driver.EARLY_STATIONARY
    if kept is not None:
        trace, _ = kept
        if any(r.exact is not None for r in trace.records):
            _, feas, stat, infeas, y_inf = harness.best_iterate(trace, rec.eps_c, rec.eps_f)
        else:
            feas = stat = infeas = float("inf")
            y_inf = 0.0
        if (feas, stat, infeas) != (rec.best_feas_err, rec.best_stat_err,
                                    rec.best_infeas_stat_err):
            bad.append("best-iterate errors differ from a recomputation")
        if rec.solved != (early or harness.success(feas, stat, y_inf, spec)):
            bad.append("solved disagrees with harness.success")
    else:
        feas_ok = rec.best_feas_err <= 2.0 * max(rec.eps_c, rec.eps_f)
        if early and not rec.solved:
            bad.append("early_stationary run not marked solved")
        elif not early and rec.solved and not feas_ok:
            bad.append("solved with feasibility error above the gate")
        elif not early and feas_ok and rec.best_stat_err <= 2.0 * eps_g and not rec.solved:
            bad.append("not solved although both error gates hold")
    return bad


def audit(kept) -> tuple[Counter, list]:
    """Per-step outcome counts read from the trace, and the trace's
    invariant violations as failure messages."""
    trace, params = kept
    violations = [f"trace invariant: {v}"
                  for v in verify.assert_trace_invariants(trace, params)]
    stats = Counter()
    stats["violations"] = len(violations)
    stats["iters"] = len(trace.records)
    for r in trace.records:
        if r.bundle is not None:
            stats["steps"] += 1
            stats["accept." + r.bundle.test] += 1
            if r.branch == driver.INFEASIBLE_BRANCH:
                stats["cg_iters"] += r.bundle.cg_iters
        if r.backtracks is not None:
            stats["merit_trials"] += r.backtracks + 1
            if r.phi_accept is not None:
                stats["line_searches"] += 1
                stats["backtracks"] += r.backtracks
    taus = [tau for _, tau in trace.tau_history]
    stats["tau_cuts"] = sum(b < a for a, b in zip(taus, taus[1:]))
    return stats, violations


class Keeper:
    """Holds the (trace, params) of the last ``solve`` so checks can read it."""

    def __init__(self):
        self.last = None

    def wrap(self, solve):
        @functools.wraps(solve)
        def keep(problem, params, seed, *args, **kwargs):
            trace = solve(problem, params, seed, *args, **kwargs)
            self.last = (trace, params)
            return trace
        return keep

    def take(self):
        kept, self.last = self.last, None
        return kept


# ---------------------------------------------------------------- results


@dataclass
class Outcome:
    """One attempted run (a grid cell counts as one run)."""

    key: tuple
    completed: bool = False
    iters: int = 0
    weighted_evals: int = 0
    solved: bool = False
    code: str = "X0"
    failures: list = field(default_factory=list)


@dataclass
class Measurement:
    workload: str
    outcomes: list = field(default_factory=list)
    measured_ns: int = 0          # sum of timed intervals (runs, or grid calls)
    call_ns: list = field(default_factory=list)   # each run_single / run_grid call
    peak_rss_kb: int = 0
    csv_digests: list = field(default_factory=list)
    table: tracing.LayerTable | None = None
    stats: Counter = field(default_factory=Counter)
    post_ns: int = 0              # audit time inside timed grid calls
    busy_ns: int = 0              # in-worker run_single time (traced grid)

    @property
    def calls(self) -> int:
        return len(self.call_ns)

    @property
    def iters(self) -> int:
        return sum(o.iters for o in self.outcomes)

    def more(self, limit_ns: float, step: int = 1) -> bool:
        """True while ``step`` more calls end nearer the measuring target than
        stopping now."""
        if not self.call_ns:
            return True
        mean = self.measured_ns / len(self.call_ns)
        return self.measured_ns + step * mean / 2 < limit_ns


def _new_measurement(workload: str, tracer) -> Measurement:
    out = Measurement(workload)
    if tracer is not None:
        out.table = tracing.LayerTable(tracer.labels)
    return out


def _outcome_of(key, rec, failures) -> Outcome:
    if rec is None:
        return Outcome(key, failures=failures)
    return Outcome(key, True, rec.iters, rec.weighted_evals, rec.solved,
                   code(rec.status, rec.solved), failures)


def _error(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({os.path.basename(last.filename)}:{last.lineno})"


# ---------------------------------------------------------------- serial


def run_serial(workload: str, seed: int, seconds: float, runs: int | None = None,
               tracer: tracing.Tracer | None = None, start: int = 0,
               into: Measurement | None = None) -> Measurement:
    """Closed loop, one client: ``run_single`` calls, in whole passes over
    the cells, until the measured run time is nearest ``seconds``; or exactly ``runs`` calls
    from run ``start`` on, added to ``into`` when given.

    Checks run between calls, outside the timed intervals, with the
    instrumentation switched off.
    """
    cells = serial_cells(workload)
    budget_iters = BUDGETS[workload][0]
    keeper = Keeper()
    patches = tracing.Patches()
    if tracer is not None:
        tracing.install(tracer, patches)
    patches.wrap(harness, "solve", keeper.wrap)
    out = into or _new_measurement(workload, tracer)
    clock = time.perf_counter_ns
    i = start
    try:
        while (i < start + runs) if runs is not None else (
                i % len(cells) or out.more(seconds * 1e9, len(cells))):
            args = serial_task(workload, cells, seed, i)
            if tracer is not None:
                tracer.begin_run(i)
            patches.on()
            t0 = clock()
            try:
                rec = harness.run_single(*args)
                error = None
            except Exception as exc:  # one bad run never aborts the workload
                rec, error = None, _error(exc)
            dur = clock() - t0
            patches.off()
            out.measured_ns += dur
            out.call_ns.append(dur)
            kept = keeper.take()
            if rec is None:
                failures = [error]
            else:
                failures = check_record(rec, budget_iters, kept)
                if tracer is not None and kept is not None:
                    stats, violations = audit(kept)
                    out.stats.update(stats)
                    failures += violations
            out.outcomes.append(_outcome_of((i,), rec, failures))
            del kept
            if tracer is not None:
                out.table.add(tracer.take())
            i += 1
    finally:
        patches.off()
    out.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


# ---------------------------------------------------------------- grid


def _cell_key(task) -> tuple:
    p, v, ef, ec, s, licq, _ = task
    return (p, v.scheme, v.optimism, ef, ec, s, licq)


def _record_key(rec) -> tuple:
    return (rec.problem, rec.variant, rec.optimism, rec.eps_f, rec.eps_c, rec.seed,
            rec.licq_mode)


class CellHook:
    """Replaces ``harness._run_cell`` so each pool task reports its own wall
    time and its worker's peak RSS; when tracing, also the cell's spans, its
    output checks and its trace audit.  Pool workers are forked after the
    hook is installed, and the extra data rides back on the record."""

    def __init__(self, tracer, trace_patches, keeper, budget_iters):
        self.tracer = tracer
        self.trace_patches = trace_patches
        self.keeper = keeper
        self.budget_iters = budget_iters
        self.run_ids = {}

    def wrap(self, run_cell):
        @functools.wraps(run_cell)
        def cell(task):
            tr = self.tracer
            if tr is not None:
                tr.begin_run(self.run_ids.get(_cell_key(task), -1))
            t0 = time.perf_counter_ns()
            rec = run_cell(task)
            info = {"dur_ns": time.perf_counter_ns() - t0,
                    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tr is not None:
                p0 = time.perf_counter_ns()
                self.trace_patches.off()
                kept = self.keeper.take()
                info["stats"], violations = audit(kept)
                info["failures"] = check_record(rec, self.budget_iters, kept) + violations
                del kept
                info["spans"] = tr.take()
                self.trace_patches.on()
                info["post_ns"] = time.perf_counter_ns() - p0
            rec._perfbench = info
            return rec
        return cell


def run_grid(seed: int, seconds: float, work_root: str, calls: int | None = None,
             tracer: tracing.Tracer | None = None, start: int = 0,
             into: Measurement | None = None) -> Measurement:
    """``run_grid`` calls until the measured call wall time is nearest
    ``seconds``; or exactly ``calls`` calls from call ``start`` on, added to
    ``into`` when given."""
    budget_iters = BUDGETS["grid"][0]
    n_workers = workers()
    keeper = Keeper()
    trace_patches = tracing.Patches()
    hook_patches = tracing.Patches()
    if tracer is not None:
        tracing.install(tracer, trace_patches)
        trace_patches.wrap(harness, "solve", keeper.wrap)
    hook = CellHook(tracer, trace_patches, keeper, budget_iters)
    hook_patches.wrap(harness, "_run_cell", hook.wrap)
    out = into or _new_measurement("grid", tracer)
    clock = time.perf_counter_ns
    c = start
    hook_patches.on()
    try:
        while (c < start + calls) if calls is not None else out.more(seconds * 1e9):
            out_dir = tempfile.mkdtemp(prefix="grid-", dir=work_root)
            config = grid_config(seed, c, out_dir)
            keys = [(p, v.scheme, v.optimism, ef, ec, s, config.licq_mode)
                    for p in config.problems for v in config.variants
                    for ef, ec in config.noise_grid for s in config.seeds]
            hook.run_ids = {k: c * 1000 + j for j, k in enumerate(keys)}
            if tracer is not None:
                tracer.begin_run(-1)
            trace_patches.on()
            t0 = clock()
            try:
                records, path = harness.run_grid(config, max_workers=n_workers)
                error = None
            except Exception as exc:  # today one raising cell aborts the grid
                records, path, error = None, None, _error(exc)
            wall = clock() - t0
            trace_patches.off()
            out.measured_ns += wall
            out.call_ns.append(wall)
            if records is None:
                out.outcomes += [Outcome(k, failures=[error]) for k in keys]
            else:
                _collect_grid(out, records, path, keys, budget_iters)
            if tracer is not None:
                out.table.add(tracer.take())
            shutil.rmtree(out_dir, ignore_errors=True)
            c += 1
    finally:
        trace_patches.off()
        hook_patches.off()
    return out


def _collect_grid(out: Measurement, records, path, keys, budget_iters):
    with open(path, newline="") as fh:
        text = fh.read()
    out.csv_digests.append(hashlib.sha256(text.encode()).hexdigest())
    round_trip_ok = harness.records_from_csv(text) == records
    seen = Counter(_record_key(r) for r in records)
    missing = set(keys) - set(seen)
    for rec in records:
        info = rec.__dict__.pop("_perfbench")
        failures = info.get("failures")
        if failures is None:
            failures = check_record(rec, budget_iters)
        if not round_trip_ok:
            failures = failures + ["results.csv does not round-trip to the records"]
        if seen[_record_key(rec)] != 1:
            failures = failures + ["cell appears more than once"]
        out.outcomes.append(_outcome_of(_record_key(rec), rec, failures))
        out.peak_rss_kb = max(out.peak_rss_kb, info["rss_kb"])
        if "spans" in info:
            out.table.add(info["spans"])
            out.stats.update(info["stats"])
            out.post_ns += info["post_ns"]
            out.busy_ns += int(info["dur_ns"])
    out.outcomes += [Outcome(k, failures=["cell missing from the results"])
                     for k in sorted(missing)]


def warm_up(workload: str, seed: int):
    """One untimed run so lazy imports and numpy's first calls are paid."""
    cells = serial_cells("solve-short" if workload == "grid" else workload)
    harness.run_single(*serial_task(workload, cells, seed + 1, 0))


def measure(workload: str, seed: int, seconds: float, work_root: str,
            tracer: tracing.Tracer | None = None, count: int | None = None,
            start: int = 0, into: Measurement | None = None) -> Measurement:
    if workload == "grid":
        return run_grid(seed, seconds, work_root, count, tracer, start, into)
    return run_serial(workload, seed, seconds, count, tracer, start, into)


def measure_traced(workload: str, seed: int, seconds: float, work_root: str,
                   tracer: tracing.Tracer) -> tuple[Measurement, Measurement]:
    """The same steps untraced and traced, alternating step by step so that
    the tracing overhead compares like with like on a machine whose speed
    drifts.  A step is one grid call or one pass over the serial cells;
    steps continue until the untraced time is nearest ``seconds``."""
    step = 1 if workload == "grid" else len(serial_cells(workload))
    plain = traced = None
    start = 0
    while plain is None or plain.more(seconds * 1e9, step):
        plain = measure(workload, seed, seconds, work_root, count=step, start=start,
                        into=plain)
        traced = measure(workload, seed, seconds, work_root, tracer, step, start, traced)
        start += step
    return plain, traced


def compare_reference(m: Measurement, seed: int, path: str) -> str:
    """Mark runs whose (status, solved) differ from the recorded reference.

    Returns a one-line note for the report.
    """
    if not os.path.isfile(path):
        return "reference: none recorded"
    with open(path) as fh:
        ref = json.load(fh)
    if ref["seed"] != seed:
        return f"reference: recorded for seed {ref['seed']} only, not compared"
    entry = ref[m.workload]
    codes = [entry["codes"][i:i + 2] for i in range(0, len(entry["codes"]), 2)]
    checked = min(len(codes), len(m.outcomes))
    mismatched = 0
    for o, want in zip(m.outcomes, codes):
        if o.code != want:
            o.failures.append(f"(status, solved) {o.code} differs from reference {want}")
            mismatched += 1
    note = f"reference: {checked} runs compared, {mismatched} differ"
    if m.workload == "grid":
        digests = entry["csv_sha256"]
        same = sum(a == b for a, b in zip(m.csv_digests, digests))
        compared = min(len(m.csv_digests), len(digests))
        note += (f"; results.csv digest matches on {same} of {compared} grid calls"
                 " (informational)")
    return note


# ---------------------------------------------------------------- metrics


def end_to_end(m: Measurement, setup_s: float) -> dict:
    done = [o for o in m.outcomes if o.completed]
    seconds = m.measured_ns * 1e-9
    run_ms = [ns * 1e-6 for ns in m.call_ns]
    attempted = max(len(m.outcomes), 1)
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (len(done) / seconds, "1/s"),
        "iters_per_s": (m.iters / seconds, "1/s"),
        "run_ms_p50": (float(np.percentile(run_ms, 50)), "ms"),
        "run_ms_p90": (float(np.percentile(run_ms, 90)), "ms"),
        "peak_rss_mb": (m.peak_rss_kb / 1024.0, "MB"),
        "solved_frac": (sum(o.solved for o in m.outcomes) / attempted, "fraction"),
        "evals_per_run": (statistics.fmean(o.weighted_evals for o in done) if done else 0.0,
                          "count"),
    }


def per_layer(m: Measurement, untraced_ns: int) -> dict:
    """Per-layer metrics of a traced measurement, normalised per solver
    iteration (trace record) so runs of different length compare."""
    t, st = m.table, m.stats
    iters = max(m.iters, 1)
    steps_ = max(st["steps"], 1)
    tangential = max(t.calls_of("steps.tangential_step"), 1)
    normal = max(t.calls_of("steps.normal_step"), 1)
    searches = max(t.calls_of("stepsize.line_search_alpha"), 1)
    if m.workload == "grid":
        n = workers()
        wall_ns = m.measured_ns - m.post_ns / n
        busy_frac = m.busy_ns / max(n * m.measured_ns - m.post_ns, 1)
        grid_wall_s = wall_ns * 1e-9 / max(m.calls, 1)
    else:
        wall_ns = m.measured_ns
        busy_frac = t.total_s("harness.run_single") / max(m.measured_ns * 1e-9, 1e-12)
        grid_wall_s = 0.0

    def per_iter(x):
        return x / iters

    evaluate = ("problems.evaluate[exact]", "problems.evaluate[oracle]")
    samples = tuple(f"noise.sample.{k}" for k in tracing.SAMPLE_KINDS)
    adaptive = ("stepsize.update_chi_zeta", "stepsize.xi_update", "stepsize.adaptive_alpha")
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for label in ("linalg.minres_iterate", "steps.tangential_step", "steps.check_tt1",
                  "steps.check_tt2", "steps.normal_step", "linalg.cg_steihaug",
                  "merit.model_reduction", "stepsize.line_search_alpha",
                  "stepsize.estimate_lipschitz", "problems.get_problem", "driver.solve",
                  "harness.best_iterate", "linalg.least_squares_multiplier"):
        put(f"{label}.calls", per_iter(t.calls_of(label)), "1/iter")
        put(f"{label}.self_s", per_iter(t.self_s(label)), "s/iter")
    put("steps.minres_per_step", t.calls_of("linalg.minres_iterate") / tangential, "1/step")
    put("steps.tt_checks_per_step",
        t.calls_of("steps.check_tt1", "steps.check_tt2") / steps_, "1/step")
    for tag in ("TT1", "TT2_case2", "TT2_cond1", "exact_fallback"):
        put(f"steps.accept.{tag}", st[f"accept.{tag}"] / steps_, "1/step")
    put("steps.cg_per_step", st["cg_iters"] / normal, "1/step")
    for kind in tracing.SAMPLE_KINDS:
        put(f"noise.sample.{kind}.calls", per_iter(t.calls_of(f"noise.sample.{kind}")), "1/iter")
    put("noise.sample.self_s", per_iter(t.self_s(*samples)), "s/iter")
    put("problems.evaluate.calls", per_iter(t.calls_of(*evaluate)), "1/iter")
    put("problems.evaluate.oracle_calls", per_iter(t.calls_of(evaluate[1])), "1/iter")
    put("problems.evaluate.exact_calls", per_iter(t.calls_of(evaluate[0])), "1/iter")
    put("problems.evaluate.self_s", per_iter(t.self_s(*evaluate)), "s/iter")
    put("merit.tau_trial.calls", per_iter(t.calls_of("merit.tau_trial")), "1/iter")
    put("merit.tau_cuts", per_iter(st["tau_cuts"]), "1/iter")
    put("stepsize.backtracks", st["backtracks"] / searches, "1/search")
    put("stepsize.armijo_accept_ratio",
        st["line_searches"] / max(st["merit_trials"], 1), "fraction")
    put("stepsize.adaptive.self_s", per_iter(t.self_s(*adaptive)), "s/iter")
    put("harness.run_single.self_s", per_iter(t.self_s("harness.run_single")), "s/iter")
    put("harness.run_grid.wall_s", grid_wall_s, "s")
    put("harness.pool_busy_frac", busy_frac, "fraction")
    put("harness.records_to_csv.self_s", per_iter(t.self_s("harness.records_to_csv")), "s/iter")
    put("linalg.norm2.calls", per_iter(t.calls_of("linalg.norm2")), "1/iter")
    put("linalg.norm_inf.calls", per_iter(t.calls_of("linalg.norm_inf")), "1/iter")
    put("verify.trace_violations", st["violations"], "count")
    put("trace.overhead", wall_ns / max(untraced_ns, 1) - 1.0, "fraction")
    return out

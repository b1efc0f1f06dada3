import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from noisy_sqp import harness
from noisy_sqp.driver import SolverParams, solve
from noisy_sqp.harness import (
    ExperimentConfig,
    RunRecord,
    VariantSpec,
    best_iterate,
    costs_to_tsv,
    performance_profile,
    profile_to_tsv,
    records_from_csv,
    records_to_csv,
    run_grid,
    run_single,
    success,
)
from noisy_sqp.linalg import least_squares_multiplier, norm_inf
from noisy_sqp.noise import NoiseSpec, derive_gradient_noise
from noisy_sqp.problems import duplicate_last_constraint, registry_by_name


def make_record(**kw):
    base = dict(problem="p", variant="ada", optimism="opt", exactness="inexact",
                eps_f=1e-2, eps_c=1e-2, seed=0, licq_mode="original",
                status="budget_iters", iters=10, weighted_evals=30,
                minres_iters=40, cg_iters=12, best_feas_err=0.0,
                best_stat_err=0.0, best_infeas_stat_err=0.0,
                terminated_early=False, solved=True)
    base.update(kw)
    return RunRecord(**base)


class TestBestIterateRule:
    """Rule-application checks on synthetic traces with hand-set errors."""

    def _fake_trace(self, rows):
        # rows: (feas, stat); J = [[1, 0]] and g = (0, stat) realize the
        # stationarity error exactly under least-squares multipliers
        from types import SimpleNamespace
        records = []
        for k, (feas, stat) in enumerate(rows):
            exact = SimpleNamespace(c=np.array([feas]),
                                    g=np.array([0.0, stat]),
                                    J=np.array([[1.0, 0.0]]))
            records.append(SimpleNamespace(k=k, exact=exact))
        return SimpleNamespace(records=records)

    def test_both_qualified_lowest_stationarity_wins(self):
        trace = self._fake_trace([(0.0, 0.5), (0.0, 0.2)])
        idx, feas, stat, _, _ = best_iterate(trace, 1e-1, 1e-1)
        assert idx == 1
        assert stat == pytest.approx(0.2)

    def test_none_qualified_lowest_feasibility_wins(self):
        trace = self._fake_trace([(3.0, 0.0), (1.0, 0.9)])
        idx, feas, stat, _, _ = best_iterate(trace, 1e-1, 1e-1)
        assert idx == 1
        assert feas == pytest.approx(1.0)

    def test_ties_break_to_smallest_index(self):
        trace = self._fake_trace([(0.0, 0.2), (0.0, 0.2)])
        idx, *_ = best_iterate(trace, 1e-1, 1e-1)
        assert idx == 0

    def test_zero_noise_converged_run_selects_final_iterate(self):
        # dense-KKT-oracle comparison: the converged run ends exactly at x*
        p = registry_by_name()["quad-linear"]
        params = SolverParams.benchmark_defaults(NoiseSpec(), variant="adaptive",
                                             exactness="exact", max_iters=100)
        trace = solve(p, params, 0)
        idx, feas, stat, _, _ = best_iterate(trace, 0.0, 0.0)
        assert idx == len(trace.records) - 1
        assert stat <= 1e-6
        x_star = np.asarray(p.known_kkt[0])
        assert np.max(np.abs(trace.records[idx].x - x_star)) <= 1e-8


class TestBestIterate:
    def _trace(self, eps=1e-1):
        p = registry_by_name()["unit-circle"]
        eps_g, eps_J = derive_gradient_noise(eps, eps)
        noise = NoiseSpec(eps_f=eps, eps_g=eps_g, eps_c=eps, eps_J=eps_J)
        params = SolverParams.benchmark_defaults(noise, variant="adaptive", max_iters=40)
        return solve(p, params, 0)

    def test_qualified_iterates_pick_min_stationarity(self):
        trace = self._trace()
        idx, feas, stat, infeas, y_inf = best_iterate(trace, 1e-1, 1e-1)
        gate = 2 * 1e-1
        # recompute the rule directly from the trace
        from noisy_sqp.linalg import least_squares_multiplier, norm_inf
        rows = []
        for i, r in enumerate(trace.records):
            y = least_squares_multiplier(r.exact.J[None], r.exact.g[None])[0]
            rows.append((i, norm_inf(r.exact.c),
                         norm_inf(r.exact.g + r.exact.J.T @ y)))
        qualified = [row for row in rows if row[1] <= gate]
        want = min(qualified, key=lambda row: (row[2], row[0]))
        assert idx == want[0]
        assert stat == pytest.approx(want[2])

    def test_no_qualified_falls_back_to_feasibility(self):
        trace = self._trace()
        # impossible gate: nothing qualifies, the most feasible iterate wins
        idx, feas, stat, infeas, y_inf = best_iterate(trace, 0.0, 0.0)
        from noisy_sqp.linalg import norm_inf
        feas_all = [norm_inf(r.exact.c) for r in trace.records]
        assert feas == pytest.approx(min(feas_all))
        assert idx == int(np.argmin(feas_all))

    def test_never_selects_after_early_termination(self):
        # early-terminated traces end at the termination record by construction
        from noisy_sqp.problems import ExactEvaluation, ProblemSpec
        A = np.array([[1.0, 1.0]])

        def ev(x):
            return ExactEvaluation(f=0.5 * float(x @ x), g=x.copy(), c=A @ x, J=A)

        p = ProblemSpec("kkt-start", 2, 1, np.zeros(2), ev)
        noise = NoiseSpec(eps_f=1e-2, eps_g=1e-1, eps_c=1e-2, eps_J=1e-1)
        params = SolverParams.benchmark_defaults(
            noise, variant="adaptive", optimism="optimistic", exactness="exact")
        trace = solve(p, params, 0)
        assert trace.status == "early_stationary"
        idx, *_ = best_iterate(trace, 1e-2, 1e-2)
        assert idx <= trace.records[-1].k


def per_record_best_iterate(trace, eps_c, eps_f):
    """The selection rule one record at a time, as a reference."""
    rows = []
    for idx, rec in enumerate(r for r in trace.records if r.exact is not None):
        ex = rec.exact
        y = least_squares_multiplier(ex.J[None], ex.g[None])[0]
        rows.append((idx, norm_inf(ex.c), norm_inf(ex.g + ex.J.T @ y),
                     norm_inf(ex.J.T @ ex.c), norm_inf(y)))
    qualified = [row for row in rows if row[1] <= 2.0 * max(eps_c, eps_f)]
    if qualified:
        return min(qualified, key=lambda row: (row[2], row[0]))
    return min(rows, key=lambda row: (row[1], row[0]))


class TestStackedBestIterate:
    """The stacked selection returns exactly what per-record selection does."""

    def _trace(self):
        # duplicated constraint: every Gram matrix takes the ridge path
        p = duplicate_last_constraint(registry_by_name()["unit-circle"])
        noise = NoiseSpec(eps_f=1e-2, eps_g=1e-1, eps_c=1e-2, eps_J=1e-1)
        params = SolverParams.benchmark_defaults(noise, variant="adaptive", max_iters=60)
        return solve(p, params, 3)

    def test_qualified_winner(self):
        trace = self._trace()
        got = best_iterate(trace, 1e-2, 1e-2)
        assert got == per_record_best_iterate(trace, 1e-2, 1e-2)
        assert got[1] <= 2e-2

    def test_no_qualified_fallback(self):
        trace = self._trace()
        got = best_iterate(trace, 0.0, 0.0)
        assert got == per_record_best_iterate(trace, 0.0, 0.0)
        assert got[1] > 0.0

    def test_exact_stationarity_tie_goes_to_smaller_index(self):
        from types import SimpleNamespace
        trace = self._trace()
        base = trace.records[5].exact
        # records 1 and 3 qualify with bitwise-equal stationarity errors
        unqualified = SimpleNamespace(c=base.c + 10.0, g=base.g, J=base.J)
        records = [SimpleNamespace(exact=e) for e in (unqualified, base, unqualified, base)]
        tie = SimpleNamespace(records=records)
        got = best_iterate(tie, 1.0, 1.0)
        assert got == per_record_best_iterate(tie, 1.0, 1.0)
        assert got[0] == 1


class TestChunkedBestIterate:
    """Stacking in chunks selects exactly what one stack of the whole trace does."""

    def _trace(self, max_iters):
        p = duplicate_last_constraint(registry_by_name()["quad-ellipse"])
        noise = NoiseSpec(eps_f=1e-2, eps_g=1e-1, eps_c=1e-2, eps_J=1e-1)
        params = SolverParams.benchmark_defaults(
            noise, variant="adaptive", optimism="pessimistic", max_iters=max_iters)
        return solve(p, params, 8)

    def _both(self, monkeypatch, trace, eps, chunk):
        monkeypatch.setattr(harness, "BEST_ITERATE_CHUNK", len(trace.records))
        one_stack = best_iterate(trace, eps, eps)
        monkeypatch.setattr(harness, "BEST_ITERATE_CHUNK", chunk)
        return best_iterate(trace, eps, eps), one_stack

    def test_trace_longer_than_the_default_chunk(self):
        trace = self._trace(harness.BEST_ITERATE_CHUNK + 50)
        assert len(trace.records) > harness.BEST_ITERATE_CHUNK
        for eps in (1e-2, 0.0):
            got = best_iterate(trace, eps, eps)
            assert got == per_record_best_iterate(trace, eps, eps)

    @pytest.mark.parametrize("eps", [1e-2, 0.0])
    def test_small_chunks_equal_one_stack(self, monkeypatch, eps):
        trace = self._trace(60)
        got, one_stack = self._both(monkeypatch, trace, eps, chunk=7)
        assert got == one_stack

    def test_tie_across_a_chunk_boundary_goes_to_smaller_index(self, monkeypatch):
        from types import SimpleNamespace
        base = self._trace(10).records[5].exact
        unqualified = SimpleNamespace(c=base.c + 10.0, g=base.g, J=base.J)
        # with chunks of 4, the tied records 2 and 6 lie in different chunks
        exact = [unqualified] * 2 + [base] + [unqualified] * 3 + [base, unqualified]
        tie = SimpleNamespace(records=[SimpleNamespace(exact=e) for e in exact])
        got, one_stack = self._both(monkeypatch, tie, 1.0, chunk=4)
        assert got == one_stack
        assert got[0] == 2


class TestGridCellIsolation:
    def test_raising_cell_becomes_an_error_row(self, tmp_path, monkeypatch, caplog):
        run_single = harness.run_single

        def flaky(problem_name, *args):
            if problem_name == "unit-circle":
                raise RuntimeError("cell failure")
            return run_single(problem_name, *args)

        monkeypatch.setattr(harness, "run_single", flaky)
        config = ExperimentConfig(
            problems=["quad-linear", "unit-circle"], noise_grid=[(1e-2, 1e-2)],
            variants=[VariantSpec("ada", "opt")], seeds=[0, 1], budgets=(40, 2000),
            out_dir=str(tmp_path))
        records, path = run_grid(config, max_workers=1)
        errors = [r for r in records if r.status == harness.ERROR]
        assert [(r.problem, r.seed) for r in errors] == [("unit-circle", 0), ("unit-circle", 1)]
        for r in errors:
            assert (r.iters, r.weighted_evals, r.minres_iters, r.cg_iters) == (0, 0, 0, 0)
            assert r.best_feas_err == r.best_stat_err == r.best_infeas_stat_err == np.inf
            assert not r.solved and not r.terminated_early
            assert (r.variant, r.optimism, r.exactness, r.licq_mode) == (
                "ada", "opt", "inexact", "original")
        normal = [r for r in records if r.problem == "quad-linear"]
        assert len(normal) == 2 and all(r.status != harness.ERROR for r in normal)
        assert caplog.text.count("RuntimeError: cell failure") == 2
        text = open(path).read()
        assert text.splitlines()[0] == ",".join(harness.CSV_COLUMNS)
        assert records_from_csv(text) == records


class TestSuccess:
    def test_exact_kkt_zero_noise(self):
        assert success(0.0, 0.0, 0.0, NoiseSpec())

    def test_feasibility_violation(self):
        eps = NoiseSpec(eps_f=1e-1, eps_c=1e-1)
        assert not success(3e-1, 0.0, 0.0, eps)

    def test_stationarity_bound_with_multiplier_norm(self):
        eps = NoiseSpec(eps_g=0.1, eps_J=0.1)
        assert success(0.0, 0.25, 0.5, eps)
        assert not success(0.0, 0.35, 0.5, eps)

    @pytest.mark.parametrize("scheme", ["ada", "ls"])
    def test_solved_reads_the_best_iterate_whatever_the_status(self, scheme):
        # solved is early_stationary or the best iterate's errors within the
        # noise-scaled gates, whatever the status: at eps 1e200 the first
        # sample's ||c|| overflows, and the start's errors pass gates of order
        # 1e200.  CHANGES.md lists this outcome as FOUND (`harness.success` gates
        # feasibility at 2 max(eps_c, eps_f)); ROADMAP item 2's status review is
        # where the rule may change, and this pin with it
        row = run_single("unit-circle", VariantSpec(scheme, "opt"), 1e200, 1e200, 0, "original")
        assert (row.status, row.iters, row.solved) == ("nonfinite_evaluation", 1, True), \
            "the documented solved rule changed: see the FOUND entry on harness.success"


class TestRunGrid:
    def _config(self, out_dir):
        return ExperimentConfig(
            problems=["quad-linear", "unit-circle"],
            noise_grid=[(1e-2, 1e-2)],
            variants=[VariantSpec("ada", "opt"), VariantSpec("ls", "opt")],
            seeds=[0],
            budgets=(60, 2000),
            out_dir=str(out_dir),
        )

    def test_cardinality(self, tmp_path):
        records, path = run_grid(self._config(tmp_path), max_workers=1)
        assert len(records) == 2 * 2 * 1 * 1

    def test_byte_identical_reruns(self, tmp_path):
        _, path1 = run_grid(self._config(tmp_path / "a"), max_workers=1)
        _, path2 = run_grid(self._config(tmp_path / "b"), max_workers=2)
        assert open(path1, "rb").read() == open(path2, "rb").read()

    def test_csv_roundtrip_17_digits(self, tmp_path):
        records, path = run_grid(self._config(tmp_path), max_workers=1)
        text = open(path).read()
        parsed = records_from_csv(text)
        assert records_to_csv(parsed) == text
        assert parsed == records

    def test_csv_columns_follow_the_record_fields(self, tmp_path):
        records, path = run_grid(self._config(tmp_path), max_workers=1)
        header, *rows = open(path).read().splitlines()
        assert header.split(",") == [f.name for f in dataclasses.fields(harness.RunRecord)]
        # an extra column is ignored; a missing one raises KeyError
        extra = "\n".join([header + ",note"] + [row + ",x" for row in rows]) + "\n"
        assert records_from_csv(extra) == records
        missing = "\n".join(",".join(line.split(",")[:-1]) for line in [header] + rows)
        with pytest.raises(KeyError, match="solved"):
            records_from_csv(missing)

    def test_default_workers_follow_the_usable_cpus(self, tmp_path, monkeypatch):
        # one usable CPU: the grid runs serially, so every cell passes through here
        seen = []
        run_cell = harness._run_cell

        def counting(task):
            seen.append(task)
            return run_cell(task)

        monkeypatch.setattr(harness, "_run_cell", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        records, _ = run_grid(self._config(tmp_path))
        assert len(seen) == len(records) == 4

    def test_run_single_smoke(self):
        rec = run_single("quad-linear", VariantSpec("ada", "opt"), 1e-2, 1e-2,
                         0, "original", budgets=(60, 2000))
        assert rec.solved
        assert rec.best_feas_err >= 0.0

    def test_budget_spent_in_adaptive_start_up(self):
        # the adaptive controller's Lipschitz estimates at x0 take 22 weighted
        # evaluations, past the budget of 20: no iterate, so no best iterate
        rec = run_single("unit-circle", VariantSpec("ada", "opt"), 1e-2, 1e-2, 0, "original",
                         budgets=(10, 20))
        assert (rec.status, rec.iters, rec.weighted_evals) == ("budget_evals", 0, 22)
        assert rec.best_feas_err == rec.best_stat_err == rec.best_infeas_stat_err == np.inf
        assert not rec.solved and not rec.terminated_early


def rho_by_count(table, solver, tau):
    """The share of the table's instances whose ratio is at most tau, counted one at a time."""
    hits = 0
    for inst in table.instances:
        if table.ratios[(inst, solver)] <= tau:
            hits += 1
    return hits / len(table.instances)


class TestPerformanceProfile:
    def test_hand_computed_two_by_two(self):
        records = [
            make_record(problem="p1", variant="ada", weighted_evals=2),
            make_record(problem="p2", variant="ada", weighted_evals=4),
            make_record(problem="p1", variant="ls", weighted_evals=4),
            make_record(problem="p2", variant="ls", weighted_evals=2),
        ]
        table = performance_profile(records)
        a = "ada-opt-inexact"
        b = "ls-opt-inexact"
        assert table.rho(a, 1.0) == pytest.approx(0.5)
        assert table.rho(a, 2.0) == pytest.approx(1.0)
        assert table.rho(b, 1.0) == pytest.approx(0.5)
        assert table.rho(b, 2.0) == pytest.approx(1.0)

    def test_single_solver_rejected(self):
        with pytest.raises(ValueError):
            performance_profile([make_record()])

    def test_unknown_cost_field_rejected(self):
        records = [make_record(variant="ada"), make_record(variant="ls")]
        with pytest.raises(ValueError, match="bad cost_field 'iters'"):
            performance_profile(records, cost_field="iters")

    def test_failure_caps_curve(self):
        records = [
            make_record(problem="p1", variant="ada", weighted_evals=2),
            make_record(problem="p2", variant="ada", weighted_evals=4),
            make_record(problem="p1", variant="ls", weighted_evals=4),
            make_record(problem="p2", variant="ls", weighted_evals=2, solved=False),
        ]
        table = performance_profile(records)
        assert table.rho("ls-opt-inexact", 1e9) <= 0.5

    def test_curves_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        records = []
        for prob in ("a", "b", "c"):
            for variant in ("ada", "ls"):
                records.append(make_record(
                    problem=prob, variant=variant,
                    weighted_evals=int(rng.integers(1, 50)),
                    solved=bool(rng.random() < 0.8)))
        table = performance_profile(records)
        for solver in table.solvers:
            curve = table.curves[solver]
            assert np.all(np.diff(curve) >= -1e-12)
            solved_frac = np.mean([1 if table.costs[(p, solver)] is not None else 0
                                   for p in table.instances])
            assert curve[-1] <= solved_frac + 1e-12

    def test_zero_best_cost_ties_only_the_zero_costs(self):
        # a run that starts at its KKT point at zero noise ends with 0 MINRES iterations
        records = [
            make_record(problem="p1", variant="ada", minres_iters=0),
            make_record(problem="p1", variant="ls", minres_iters=50),
            make_record(problem="p1", variant="ls", optimism="pes", minres_iters=0),
        ]
        table = performance_profile(records, cost_field="minres_iters")
        [inst] = table.instances
        assert [table.ratios[(inst, s)] for s in table.solvers] == [1.0, np.inf, 1.0]
        assert table.rho("ls-opt-inexact", 1.0) == 0.0
        assert table.rho("ada-opt-inexact", 1.0) == table.rho("ls-pes-inexact", 1.0) == 1.0

    def test_rho_is_the_share_at_most_tau_at_the_hand_computed_ratios(self):
        records = [
            make_record(problem="p1", variant="ada", weighted_evals=2),
            make_record(problem="p2", variant="ada", weighted_evals=4),
            make_record(problem="p1", variant="ls", weighted_evals=4),
            make_record(problem="p2", variant="ls", weighted_evals=2),
        ]
        table = performance_profile(records)
        for solver in table.solvers:
            for tau in (0.5, 1.0, 1.5, 2.0, 3.0, np.inf):
                assert table.rho(solver, tau) == rho_by_count(table, solver, tau)

    def test_rho_counts_ties_and_inf_ratios(self):
        # ratios ada (1, 1, 2, inf) and ls (1, 2, 1, inf): a ratio equal to tau counts,
        # an inf ratio counts at tau = inf only
        records = [
            make_record(problem="p1", variant="ada", weighted_evals=3),
            make_record(problem="p1", variant="ls", weighted_evals=3),
            make_record(problem="p2", variant="ada", weighted_evals=2),
            make_record(problem="p2", variant="ls", weighted_evals=4),
            make_record(problem="p3", variant="ada", weighted_evals=8),
            make_record(problem="p3", variant="ls", weighted_evals=4),
            make_record(problem="p4", variant="ada", solved=False),
            make_record(problem="p4", variant="ls", solved=False),
        ]
        table = performance_profile(records)
        for solver in table.solvers:
            for tau in (1.0, 2.0, 1e300, np.inf):
                assert table.rho(solver, tau) == rho_by_count(table, solver, tau)
        assert [table.rho(s, 1.0) for s in table.solvers] == [0.5, 0.5]
        assert [table.rho(s, 2.0) for s in table.solvers] == [0.75, 0.75]
        assert [table.rho(s, np.inf) for s in table.solvers] == [1.0, 1.0]

    def test_rho_and_curves_match_a_count_on_random_cost_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_problems, n_solvers = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            records = [make_record(problem=f"p{i}", variant=f"v{j}",
                                   weighted_evals=int(rng.integers(0, 6)),
                                   solved=bool(rng.random() < 0.7))
                       for i in range(n_problems) for j in range(n_solvers)]
            table = performance_profile(records)
            for solver in table.solvers:
                ratios = [table.ratios[(p, solver)] for p in table.instances]
                taus = [*ratios, *np.nextafter(ratios, 0.0), 0.0, 1.0, np.inf]
                assert [table.rho(solver, t) for t in taus] == \
                    [rho_by_count(table, solver, t) for t in taus]
                assert list(table.rho(solver, np.array(taus))) == \
                    [rho_by_count(table, solver, t) for t in taus]
                assert list(table.curves[solver]) == \
                    [rho_by_count(table, solver, t) for t in table.tau_grid]
                assert np.array_equal(table.curves[solver], table.rho(solver, table.tau_grid))

    def test_tsv_outputs(self):
        records = [
            make_record(problem="p1", variant="ada", weighted_evals=2),
            make_record(problem="p1", variant="ls", weighted_evals=4, solved=False),
            make_record(problem="p2", variant="ada", weighted_evals=3),
            make_record(problem="p2", variant="ls", weighted_evals=6),
        ]
        table = performance_profile(records)
        tsv = profile_to_tsv(table)
        assert tsv.startswith("tau\tada-opt-inexact\tls-opt-inexact\n")
        costs = costs_to_tsv(table)
        # failures serialize as empty cells, never sentinel floats
        line = [l for l in costs.splitlines() if l.startswith("p1")][0]
        assert line.split("\t")[2] == ""


class TestConfigJson:
    def test_readme_example_config_loads(self):
        # the README's example config is a valid one, with a built-in for its custom file
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
        with open(readme) as fh:
            section = fh.read().split("### Grid config JSON", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert "path/to/custom.qp.json" in block
        cfg = ExperimentConfig.from_json(block.replace("path/to/custom.qp.json", "quad-linear"))
        assert cfg.problems[-1] == "quad-linear"
        assert [v.label for v in cfg.variants] == ["ada-opt-inexact", "ls-pes-exact"]

    def test_from_json(self):
        text = """{
          "problems": ["unit-circle"],
          "noise_grid": [[0.01, 0.01]],
          "variants": [{"scheme": "ada", "optimism": "opt"}],
          "seeds": [0, 1],
          "budgets": [100, 1000],
          "licq_mode": "duplicated"
        }"""
        cfg = ExperimentConfig.from_json(text)
        assert cfg.licq_mode == "duplicated"
        assert cfg.variants[0].label == "ada-opt-inexact"

    @pytest.mark.parametrize("variant", [
        {"scheme": "adaptive", "optimism": "opt"},
        {"scheme": "ada", "optimism": "optimistic"},
        {"scheme": "ls", "optimism": "pes", "exactness": "approximate"},
    ])
    def test_unknown_variant_names_rejected(self, variant):
        text = json.dumps({"problems": ["unit-circle"], "noise_grid": [[0.01, 0.01]],
                           "variants": [variant], "seeds": [0]})
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize("kappa", [float("nan"), -1.0])
    def test_bad_kappa_rejected(self, kappa):
        text = json.dumps({"problems": ["unit-circle"], "noise_grid": [[0.01, 0.01]],
                           "variants": [{"scheme": "ada", "optimism": "opt", "kappa": kappa}],
                           "seeds": [0]})
        with pytest.raises(ValueError, match="kappa must be"):
            ExperimentConfig.from_json(text)

    def test_nan_noise_rejected(self):
        cfg = ExperimentConfig(problems=["unit-circle"], noise_grid=[(float("nan"), 1e-2)],
                               variants=[VariantSpec()], seeds=[0])
        with pytest.raises(ValueError, match="noise grid"):
            cfg.validate()

    def test_bad_noise_rejected(self):
        cfg = ExperimentConfig(problems=["unit-circle"], noise_grid=[(0.0, 1e-2)],
                               variants=[VariantSpec()], seeds=[0])
        with pytest.raises(ValueError):
            cfg.validate()


class TestImportCost:
    def test_import_loads_no_pool_or_logging(self):
        # run_grid loads the process pool, and _run_cell logging, on first use
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        code = ("import noisy_sqp, sys; print(sorted(m for m in ('concurrent.futures', "
                "'multiprocessing', 'logging') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.path.normpath(src)},
                             check=True)
        assert out.stdout.strip() == "[]"

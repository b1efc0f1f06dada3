"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from noisy_sqp.driver import EARLY_INFEASIBLE, EARLY_STATIONARY, SolverParams, solve
from noisy_sqp.harness import (
    ExperimentConfig,
    RunRecord,
    VariantSpec,
    best_iterate,
    performance_profile,
    run_grid,
)
from noisy_sqp.linalg import cg_steihaug, minres_solve, norm2, norm_inf
from noisy_sqp.noise import NoiseSpec, NoisyOracle, derive_gradient_noise
from noisy_sqp.problems import (
    ExactEvaluation,
    ProblemSpec,
    builtin_registry,
    duplicate_last_constraint,
    get_problem,
)
from noisy_sqp.verify import (
    assert_trace_invariants,
    cauchy_perturbation_scan,
    tangential_gap_scan,
)

FULL_RANK = [p.name for p in builtin_registry() if p.full_rank]


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def noise_for(eps_f, eps_c):
    eps_g, eps_J = derive_gradient_noise(eps_f, eps_c)
    return NoiseSpec(eps_f=eps_f, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)


def kkt_start_problem():
    A = np.array([[1.0, 1.0]])

    def ev(x):
        return ExactEvaluation(f=0.5 * float(x @ x), g=x.copy(), c=A @ x, J=A)

    return ProblemSpec("kkt-start", 2, 1, np.zeros(2), ev,
                       known_kkt=(np.zeros(2), np.zeros(1)))


def test_criterion_1_zero_noise_convergence():
    t0 = time.time()
    misses = []
    for variant in ("adaptive", "line_search"):
        for name in FULL_RANK:
            problem = get_problem(name)
            params = SolverParams(
                NoiseSpec(), variant=variant, exactness="exact", max_iters=500)
            trace = solve(problem, params, 0)
            idx, feas, stat, _, _ = best_iterate(trace, 5e-9, 5e-9)
            if not (feas <= 1e-8 and stat <= 1e-6):
                misses.append((variant, name, feas, stat))
                continue
            if problem.known_kkt is not None and name.startswith("quad"):
                # dense KKT oracle comparison on the uniquely-solvable QPs
                x_star = np.asarray(problem.known_kkt[0])
                x_best = trace.records[idx].x
                if norm_inf(x_best - x_star) > 1e-5:
                    misses.append((variant, name, "kkt-distance"))
    elapsed = time.time() - t0
    report(1, not misses and elapsed <= 10.0,
           f"{2 * len(FULL_RANK)} runs, {elapsed:.1f}s, misses={misses}")


def test_criterion_2_noise_scaled_success(tmp_path):
    t0 = time.time()
    variants = [VariantSpec(s, o, "inexact", 1e-2)
                for s in ("ada", "ls") for o in ("opt", "pes")]
    config = ExperimentConfig(
        problems=FULL_RANK,
        noise_grid=[(1e-2, 1e-2), (1e-4, 1e-4)],
        variants=variants,
        seeds=list(range(5)),
        budgets=(1000, 10000),
        out_dir=str(tmp_path),
    )
    records, _ = run_grid(config)
    rates = {}
    for v in variants:
        for eps_f, eps_c in config.noise_grid:
            cell = [r for r in records
                    if (r.variant, r.optimism, r.eps_f, r.eps_c)
                    == (v.scheme, v.optimism, eps_f, eps_c)]
            rates[(v.label, eps_f)] = sum(r.solved for r in cell) / len(cell)
    elapsed = time.time() - t0
    ok = all(rate >= 0.80 for rate in rates.values()) and elapsed <= 120.0
    detail = ", ".join(f"{k[0]}@{k[1]:.0e}={v:.0%}" for k, v in sorted(rates.items()))
    report(2, ok, f"{len(records)} runs, {elapsed:.0f}s, {detail}")


def test_criterion_3_early_termination_feasibility():
    problem = kkt_start_problem()
    violations = 0
    wrong_exit = 0
    for eps_c in (1e-2, 1e-4):
        noise = noise_for(eps_c, eps_c)
        for seed in range(20):
            params = SolverParams(
                noise, variant="adaptive", optimism="optimistic", exactness="exact")
            trace = solve(problem, params, seed)
            if trace.status != EARLY_STATIONARY:
                wrong_exit += 1
                continue
            if norm2(trace.records[-1].exact.c) > 2 * eps_c:
                violations += 1
    report(3, wrong_exit == 0 and violations == 0,
           f"40 seeds, wrong_exit={wrong_exit}, violations={violations}")


def test_criterion_4_infeasible_stationary_exit_bound():
    violations = 0
    wrong_exit = 0
    for eps_c in (1e-2, 1e-4):
        eps_g, eps_J = derive_gradient_noise(eps_c, eps_c)
        a = 0.8 * eps_J * np.array([0.6, 0.8])  # ||J||_2 = 0.8 eps_J everywhere

        def ev(x, a=a):
            return ExactEvaluation(f=0.5 * float(x @ x), g=x.copy(),
                                   c=np.array([a @ x + 0.5]), J=a.reshape(1, 2))

        problem = ProblemSpec("tilted-plane", 2, 1, np.zeros(2), ev)
        noise = NoiseSpec(eps_f=eps_c, eps_g=eps_g, eps_c=eps_c, eps_J=eps_J)

        class ZeroJacobianOracle(NoisyOracle):
            def _perturbations(self, exact, want):
                e_f, e_g, e_c, e_J = super()._perturbations(exact, want)
                if want in ("derivative", "both"):
                    e_J = -exact.J
                return e_f, e_g, e_c, e_J

        for seed in range(20):
            params = SolverParams(
                noise, variant="adaptive", optimism="optimistic", exactness="exact")
            oracle = ZeroJacobianOracle(problem, noise, np.random.default_rng(seed))
            trace = solve(problem, params, seed, oracle=oracle)
            if trace.status != EARLY_INFEASIBLE:
                wrong_exit += 1
                continue
            ex = trace.records[-1].exact
            kappa_c = norm2(ex.c)
            kappa_J = float(np.linalg.norm(ex.J, 2))
            if norm2(ex.J.T @ ex.c) > kappa_c * eps_J + (kappa_J + eps_J) * eps_c:
                violations += 1
    report(4, wrong_exit == 0 and violations == 0,
           f"40 seeds, wrong_exit={wrong_exit}, violations={violations}")


def test_criterion_5_monotonicity_suite():
    problems = [
        get_problem("unit-circle"),
        get_problem("quad-ellipse"),
        get_problem("parabola-ridge"),
        get_problem("sphere-dup"),
        duplicate_last_constraint(get_problem("rosenbrock-sphere")),
    ]
    total_runs = 0
    violations = []
    for problem in problems:
        for eps in (1e-2, 1e-4):
            noise = noise_for(eps, eps)
            for variant in ("adaptive", "line_search"):
                for seed in range(5):
                    params = SolverParams(
                        noise, variant=variant, max_iters=60)
                    trace = solve(problem, params, seed)
                    bad = assert_trace_invariants(trace, params)
                    total_runs += 1
                    if bad:
                        violations.append((problem.name, variant, seed, bad[:2]))
    report(5, total_runs == 100 and not violations,
           f"{total_runs} runs, violations={violations}")


def test_criterion_6_solver_vs_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst_minres = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 26))
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eig = rng.uniform(0.5, 5.0, dim) * rng.choice([-1.0, 1.0], dim)
        A = (Q * eig) @ Q.T
        b = rng.standard_normal(dim)
        rep = minres_solve(lambda p: A @ p, b, tol=1e-11)
        x_dense = np.linalg.solve(A, b)
        worst_minres = max(worst_minres,
                           norm_inf(rep.solution - x_dense) / (1 + norm_inf(x_dense)))
    worst_cg = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(m + 1, 26 - m))
        J = rng.standard_normal((m, n))
        c = rng.standard_normal(m)
        g = J.T @ c
        if norm2(g) < 1e-8:
            continue
        radius = 1e3 * norm2(g)
        v, _, _ = cg_steihaug(lambda p: J.T @ (J @ p), g, radius)
        v_dense = -np.linalg.pinv(J) @ c  # dense least-squares oracle
        worst_cg = max(worst_cg, norm_inf(v - v_dense) / (1 + norm_inf(v_dense)))
    ok = worst_minres <= 1e-8 and worst_cg <= 1e-8
    report(6, ok, f"minres worst={worst_minres:.2e}, cg worst={worst_cg:.2e}")


def test_criterion_7_perturbation_scaling():
    import json as json_mod
    quad = get_problem("quad-linear")
    # the scans are consumed through their machine-readable JSON reports
    cauchy = json_mod.loads(
        cauchy_perturbation_scan(quad, quad.x0, n_seeds=20).to_json())
    tangential = json_mod.loads(
        tangential_gap_scan(quad, np.zeros(quad.n), n_seeds=20).to_json())

    # zero-noise collapse is exactly zero on both scans
    from noisy_sqp.noise import sample_noisy
    from noisy_sqp.problems import evaluate
    from noisy_sqp.verify import _cauchy_step, _null_space_solution
    ex = evaluate(quad, quad.x0)
    clean = sample_noisy(quad, NoiseSpec(), quad.x0, np.random.default_rng(0))
    zero_cauchy = norm2(_cauchy_step(clean.c_bar, clean.J_bar, 1e2)
                        - _cauchy_step(ex.c, ex.J, 1e2))
    ex0 = evaluate(quad, np.zeros(quad.n))
    clean0 = sample_noisy(quad, NoiseSpec(), np.zeros(quad.n), np.random.default_rng(0))
    zero_tang = norm2(_null_space_solution(np.eye(quad.n), clean0.J_bar, clean0.g_bar)
                      - _null_space_solution(np.eye(quad.n), ex0.J, ex0.g))
    ok = (cauchy["pass"] and tangential["pass"]
          and zero_cauchy == 0.0 and zero_tang == 0.0)
    report(7, ok, f"cauchy={cauchy['pass']}, tangential={tangential['pass']}, "
                  f"zero-noise errors=({zero_cauchy}, {zero_tang})")


def test_criterion_8_rank_deficient_progress(tmp_path):
    config = ExperimentConfig(
        problems=FULL_RANK,
        noise_grid=[(1e-4, 1e-4)],
        variants=[VariantSpec("ada", "opt", "inexact", 1e-2),
                  VariantSpec("ls", "opt", "inexact", 1e-2)],
        seeds=list(range(5)),
        budgets=(1000, 10000),
        licq_mode="duplicated",
        out_dir=str(tmp_path),
    )
    records, _ = run_grid(config)
    hits = sum(1 for r in records if r.best_infeas_stat_err <= 1e-2)
    rate = hits / len(records)
    report(8, rate >= 0.80, f"{hits}/{len(records)} instances at "
                            f"infeasible stationarity <= 1e-2 ({rate:.0%})")


def test_criterion_9_harness_determinism_and_profile_math(tmp_path):
    config = ExperimentConfig(
        problems=["quad-linear", "unit-circle"],
        noise_grid=[(1e-2, 1e-2)],
        variants=[VariantSpec("ada", "opt"), VariantSpec("ls", "opt")],
        seeds=[0],
        budgets=(60, 2000),
        out_dir=str(tmp_path / "a"),
    )
    _, path1 = run_grid(config, max_workers=2)
    config.out_dir = str(tmp_path / "b")
    _, path2 = run_grid(config, max_workers=1)
    identical = open(path1, "rb").read() == open(path2, "rb").read()

    base = dict(optimism="opt", exactness="inexact", eps_f=1e-2, eps_c=1e-2,
                seed=0, licq_mode="original", status="budget_iters", iters=1,
                weighted_evals=0, minres_iters=0, cg_iters=0, best_feas_err=0.0,
                best_stat_err=0.0, best_infeas_stat_err=0.0,
                terminated_early=False, solved=True)
    records = [
        RunRecord(problem="p1", variant="ada", **{**base, "weighted_evals": 2}),
        RunRecord(problem="p2", variant="ada", **{**base, "weighted_evals": 4}),
        RunRecord(problem="p1", variant="ls", **{**base, "weighted_evals": 4}),
        RunRecord(problem="p2", variant="ls", **{**base, "weighted_evals": 2}),
    ]
    table = performance_profile(records)
    profile_ok = (table.rho("ada-opt-inexact", 1.0) == pytest.approx(0.5)
                  and table.rho("ada-opt-inexact", 2.0) == pytest.approx(1.0))
    report(9, identical and profile_ok,
           f"byte-identical={identical}, profile 2x2 exact={profile_ok}")

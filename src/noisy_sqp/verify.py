"""Independent oracles: finite differences, perturbation scans, trace auditing.

Nothing in this module shares code with the solver path it checks; it reads
only the solver's constants.  The trace audit re-checks the termination
tests and the paper's invariants from scratch against the raw recorded
data: `audit` evaluates every condition of every record and returns each as
a `Condition` with its two sides, its slack and whether it held, and
`assert_trace_invariants` lists the failing ones' messages.  The
perturbation scans verify the scaling laws of the noisy step components
(their formal constants are unobservable, so the testable content is linear
scaling in the noise level plus exact collapse at zero noise).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .driver import ADAPTIVE, solve
from .linalg import smallest_singular_value
from .merit import (GAMMA_C, KAPPA_RHO_R, LAMBDA_RHO_R, LAMBDA_U, LAMBDA_UV, LAMBDA_V, SIGMA_C,
                    SIGMA_JC, SIGMA_R, SIGMA_U)
from .stepsize import BETA, ETA, LS_ETA
from .noise import NoiseSpec, sample_noisy
from .problems import evaluate
from .steps import EXACT_FALLBACK, TT1, TT2_CASE2

FD_STEP = 1e-6  # fd_check's central-difference step
TAU_INCREASED = "tau increased"  # the one complaint that also names its values


@dataclass
class PerturbationReport:
    check: str
    params: dict
    observations: list = field(default_factory=list)
    passed: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "check": self.check,
            "params": self.params,
            "observations": self.observations,
            "pass": self.passed,
        }, indent=2, sort_keys=True)


def fd_check(problem, x):
    """Max-abs discrepancy of analytic (g, J) against central differences with step FD_STEP."""
    h = FD_STEP
    base = evaluate(problem, x)
    g_fd = np.zeros(problem.n)
    J_fd = np.zeros((problem.m, problem.n))
    for i in range(problem.n):
        e = np.zeros(problem.n)
        e[i] = h
        plus = evaluate(problem, x + e)
        minus = evaluate(problem, x - e)
        g_fd[i] = (plus.f - minus.f) / (2 * h)
        J_fd[:, i] = (plus.c - minus.c) / (2 * h)
    return float(np.max(np.abs(g_fd - base.g))), float(np.max(np.abs(J_fd - base.J)))


def _cauchy_step(c, J, sigma_Jc):
    # the Cauchy point, coded apart from the normal step's CG on purpose
    Jtc = J.T @ c
    direction = -Jtc
    JJtc = J @ Jtc
    denom = float(JJtc @ JJtc)
    alpha = sigma_Jc if denom == 0.0 else min(sigma_Jc, float(Jtc @ Jtc) / denom)
    return alpha * direction


def fd_scan(problems) -> PerturbationReport:
    """fd_check at each x0; a problem passes when both errors are <= 1e-5."""
    tol = 1e-5
    observations = []
    for problem in problems:
        grad_err, jac_err = fd_check(problem, problem.x0)
        observations.append({"problem": problem.name, "grad_err": grad_err, "jac_err": jac_err,
                             "pass": grad_err <= tol and jac_err <= tol})
    return PerturbationReport(
        check="fd_check", params={"h": FD_STEP, "tol": tol},
        observations=observations, passed=all(o["pass"] for o in observations))


def cauchy_perturbation_scan(problem, x, n_seeds: int = 20) -> PerturbationReport:
    """Scaling law of the noisy vs exact Cauchy step under eps_c = eps_J = eps.

    Scans eps = 1e-2, 1e-3, ..., 1e-8 with seeds 0..n_seeds-1 and
    sigma_Jc = 1e2.  Pass criterion: the max ratio ||noisy step - exact
    step|| / eps stays within 10x of its value at the anchor eps = 1e-5.
    """
    ex = evaluate(problem, x)
    if smallest_singular_value(ex.J) < 1e-3:
        raise ValueError("Jacobian not full rank at the scan point")
    if np.linalg.norm(ex.J.T @ ex.c) < 1e-6:
        raise ValueError("||J'c|| not bounded away from zero at the scan point")

    sigma_Jc = 1e2
    exact_step = _cauchy_step(ex.c, ex.J, sigma_Jc)
    observations = []
    for eps in [10.0 ** (-p) for p in range(2, 9)]:
        worst = 0.0
        for s in range(n_seeds):
            rng = np.random.default_rng(s)
            spec = NoiseSpec(eps_f=0.0, eps_g=0.0, eps_c=eps, eps_J=eps)
            noisy = sample_noisy(problem, spec, x, rng, want="both")
            noisy_step = _cauchy_step(noisy.c_bar, noisy.J_bar, sigma_Jc)
            worst = max(worst, float(np.linalg.norm(noisy_step - exact_step)))
        observations.append({"eps": eps, "max_error": worst, "ratio": worst / eps})
    ratios = {o["eps"]: o["ratio"] for o in observations}
    passed = all(r <= 10.0 * ratios[1e-5] for r in ratios.values())
    return PerturbationReport(
        check="cauchy_perturbation_scan",
        params={"problem": problem.name, "x": list(map(float, x)),
                "n_seeds": n_seeds, "seed0": 0, "sigma_Jc": sigma_Jc},
        observations=observations, passed=passed)


def tangential_gap_scan(problem, x, n_seeds: int = 20) -> PerturbationReport:
    """Scaling law of the exact tangential solutions under gradient/Jacobian noise.

    Uses exact saddle solves on both sides (zero residuals, zero normal
    component at a feasible point) over eps_g = eps_J = eps = 1e-2, 1e-3,
    ..., 1e-6 with seeds 0..n_seeds-1, and requires the error /
    (eps_g + eps_J) ratio to stay within 10x of its value at the anchor
    eps = 1e-2, the largest.
    """
    ex = evaluate(problem, x)
    if problem.m >= problem.n:
        raise ValueError("null space of J must be nontrivial (need m < n)")
    H = np.eye(problem.n)
    u_exact = _null_space_solution(H, ex.J, ex.g)
    observations = []
    for eps in [10.0 ** (-p) for p in range(2, 7)]:
        worst = 0.0
        for s in range(n_seeds):
            rng = np.random.default_rng(s)
            spec = NoiseSpec(eps_f=0.0, eps_g=eps, eps_c=0.0, eps_J=eps)
            noisy = sample_noisy(problem, spec, x, rng, want="derivative")
            u_noisy = _null_space_solution(H, noisy.J_bar, noisy.g_bar)
            worst = max(worst, float(np.linalg.norm(u_noisy - u_exact)))
        observations.append({"eps": eps, "max_error": worst, "ratio": worst / (2.0 * eps)})
    ratios = {o["eps"]: o["ratio"] for o in observations}
    passed = all(r <= 10.0 * ratios[1e-2] for r in ratios.values())
    return PerturbationReport(
        check="tangential_gap_scan",
        params={"problem": problem.name, "x": list(map(float, x)),
                "n_seeds": n_seeds, "seed0": 0},
        observations=observations, passed=passed)


def _null_space_solution(H, J, g):
    # minimize g'u + 1/2 u'Hu over Null(J) (never {0}: m < n), via an explicit null-space basis
    _, s, Vt = np.linalg.svd(J)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    Z = Vt[rank:].T
    M = Z.T @ H @ Z
    w = np.linalg.solve(M, -(Z.T @ g))
    return Z @ w


class Condition(NamedTuple):
    """A condition the audit re-checked at record ``k``: the claim lhs <= rhs + slack.

    A lower bound lhs >= rhs - slack is kept negated, so rhs + slack - lhs is
    always the margin.  ``held`` is False when lhs > rhs + slack (a NaN never
    shows that) or when the part that four conditions add fails: TT2's positive
    residual decrease and slope, alpha_suff <= 1 and chi, zeta, xi > 0."""

    k: int
    name: str  # the complaint
    lhs: float
    rhs: float
    slack: float
    held: bool

    @property
    def message(self) -> str:
        values = f" {self.rhs} -> {self.lhs}" if self.name == TAU_INCREASED else ""
        return f"k={self.k}: {self.name}{values}"


def _at_most(k, name, lhs, rhs, slack=0.0, given=True) -> Condition:
    return Condition(k, name, float(lhs), float(rhs), float(slack),
                     bool(given) and not lhs > rhs + slack)


def _at_least(k, name, lhs, rhs, slack=0.0, given=True) -> Condition:
    # -lhs > -rhs + slack is lhs < rhs - slack, bit for bit
    return _at_most(k, name, -lhs, -rhs, slack, given)


@np.errstate(over="ignore", invalid="ignore")
def audit(trace) -> list[Condition]:
    """Re-check every recorded per-iteration invariant: one `Condition` per check
    and record, each evaluated, read from the trace and the solver's constants."""
    records = trace.records
    found = [_at_most(r.k, TAU_INCREASED, r.tau, prev.tau, 1e-15)
             for prev, r in zip(records, records[1:])]

    if trace.variant == ADAPTIVE:
        ctl = [r for r in records if r.chi is not None]
        for prev, r in zip(ctl, ctl[1:]):
            found += [_at_least(r.k, "chi decreased", r.chi, prev.chi, 1e-15),
                      _at_most(r.k, "zeta increased", r.zeta, prev.zeta, 1e-15),
                      _at_most(r.k, "xi increased", r.xi, prev.xi, 1e-15)]
        state = trace.adaptive_state
        for r in [r for r in records if r.alpha_suff is not None]:
            least = min(r.chi, r.zeta, r.xi)
            found += [_at_most(r.k, "alpha ordering alpha <= alpha_suff <= 1 broken", r.alpha,
                               r.alpha_suff, 1e-12, given=r.alpha_suff <= 1.0 + 1e-12),
                      _at_most(r.k, "alpha_min > alpha_max", r.alpha_min, r.alpha_max, 1e-12),
                      _at_least(r.k, "controller sequence not positive", least, 0.0,
                                given=least > 0)]
            if state is not None and r.bundle is not None:
                # Lipschitz estimates are held constant, so the sufficient
                # step size is recomputable from raw recorded data
                denom = r.tau * state.L_est + state.Gamma_est
                dd = float(r.bundle.d @ r.bundle.d)
                suff = min(2.0 * (1.0 - ETA) * BETA * r.delta_l / (denom * dd), 1.0)
                found.append(_at_most(r.k, "alpha_suff does not match recomputation",
                                      abs(suff - r.alpha_suff), 0.0, 1e-10 * max(1.0, suff)))
    else:
        found += [_at_most(r.k, "accepted step violates relaxed Armijo", r.phi_accept,
                           r.phi0 - LS_ETA * r.alpha * r.delta_l + r.relax,
                           1e-10 * max(1.0, abs(r.phi0)))
                  for r in records if r.phi_accept is not None]

    for r, after in zip(records, records[1:] + [None]):
        if r.bundle is None:
            continue
        found += _bundle_conditions(r, trace.eps_o, trace.H)
        if after is not None:
            drift = np.max(np.abs(after.x - (r.x + r.alpha * r.bundle.d)))
            found.append(_at_most(r.k, "iterate update identity broken", drift, 0.0,
                                  1e-12 * max(1.0, float(np.max(np.abs(after.x))))))
    return found


def assert_trace_invariants(trace, params) -> list:
    """The failing conditions' messages, empty when the trace passes; ``params``,
    the run's `SolverParams`, stays for the callers that pass it."""
    return [c.message for c in audit(trace) if not c.held]


def _bundle_conditions(record, eps_o, H) -> list[Condition]:
    """From-scratch re-evaluation of the declared termination test and step bounds."""
    b, k, tau_prev = record.bundle, record.k, record.tau_prev
    g, c, J = record.noisy.g_bar, record.noisy.c_bar, record.noisy.J_bar
    u, v, r, rho = b.u, b.v, b.r, b.rho
    nrm = np.linalg.norm
    slack = 1e-9
    found = [_at_most(k, "d != v + u", nrm(b.d - (v + u)), 0.0, 1e-12 * max(1.0, nrm(b.d)))]

    uHu = float(u @ (H @ u))
    uu = float(u @ u)
    Jtc = nrm(J.T @ c)
    gate = LAMBDA_RHO_R * min(max(nrm(u), Jtc), KAPPA_RHO_R)
    resid = max(nrm(rho), nrm(r))

    test = b.test
    if test == EXACT_FALLBACK:
        # the dense solve of K z = -(g + Hv, 0), K = [[H, J'], [J, 0]], leaves at most its
        # LU round-off: residual within 1e-9 + 1e-13 (n + m) max|K| max|z|, here divided
        # by (n + m) max|K| so that no product of maxima overflows
        K_max = max(np.max(np.abs(H)), np.max(np.abs(J)))
        z_max = np.max(np.abs(np.concatenate((u, b.y))))
        found.append(_at_most(k, "fallback residual not at round-off level",
                              (resid - 1e-9) / sum(J.shape) / K_max, 1e-13 * z_max))
        test = b.fallback_case

    if test == TT1:
        dl_prev_u = -tau_prev * float(g @ u) + nrm(c) - nrm(c + J @ u)
        found += [
            _at_most(k, "TT1 with nonzero normal component", nrm(v), 0.0),
            _at_most(k, "TT1 residual gate fails on recheck", resid, gate, slack),
            _at_least(k, "TT1 curvature condition fails on recheck",
                      uHu, LAMBDA_U * uu - eps_o, slack),
            _at_most(k, "TT1 objective-model condition fails on recheck",
                     float(g @ u) + 0.5 * uHu, eps_o, slack),
            _at_least(k, "TT1 model-reduction condition fails on recheck",
                      dl_prev_u, tau_prev * SIGMA_U * max(uHu, LAMBDA_U * uu) - eps_o, slack)]
        if record.alpha > 0.0 and record.delta_l is not None:  # the unrelaxed lower bound
            want = record.tau * SIGMA_U * LAMBDA_U / 2.0 * float(b.d @ b.d)
            found.append(_at_least(k, "feasible-branch model reduction lower bound fails",
                                   record.delta_l, want, 1e-10))
        return found

    found.append(_at_most(k, "TT2 residual gate fails on recheck", resid, gate, slack))
    if nrm(u) > LAMBDA_UV * nrm(v) + slack:  # u dominates: curvature, given the slope
        slope = float((g + H @ v) @ u)
        weight = max(0.5, 1.0 - Jtc)
        found.append(_at_least(k, "TT2 dominance/curvature condition fails on recheck",
                               uHu, LAMBDA_U * uu, slack,
                               given=slope + weight * uHu <= LAMBDA_V * nrm(v) + slack))
    dec_v = nrm(c) - nrm(c + J @ v)
    if test == TT2_CASE2:
        dl_prev_d = -tau_prev * float(g @ b.d) + nrm(c) - nrm(c + J @ b.d)
        found.append(_at_least(k, "TT2 case-2 model reduction fails on recheck", dl_prev_d,
                               tau_prev * SIGMA_U * max(uHu, LAMBDA_U * uu) + SIGMA_C * dec_v,
                               slack))
    else:
        found.append(_at_least(k, "TT2 residual-decrease condition fails on recheck",
                               nrm(c) - nrm(c + J @ v + r), SIGMA_R * dec_v, slack,
                               given=dec_v > 0.0))
    # Cauchy decrease, recomputed with an independently coded Cauchy point
    step = _cauchy_step(c, J, SIGMA_JC)
    return found + [
        _at_most(k, "normal trust region bound fails on recheck",
                 nrm(v), SIGMA_JC * Jtc * (1.0 + 1e-12), slack),
        _at_least(k, "Cauchy decrease condition fails on recheck",
                  dec_v, GAMMA_C * (nrm(c) - nrm(c + J @ step)), 1e-9 * max(1.0, nrm(c)))]


def trace_invariant_sweep(problems, params_list, seeds) -> PerturbationReport:
    """Solve every (problem, params, seed) and collect all trace-invariant violations."""
    observations = []
    total = 0
    for problem in problems:
        for params in params_list:
            for seed in seeds:
                trace = solve(problem, params, seed)
                bad = assert_trace_invariants(trace, params)
                total += len(bad)
                observations.append({
                    "problem": problem.name,
                    "variant": params.variant,
                    "seed": seed,
                    "violations": bad,
                })
    return PerturbationReport(
        check="trace_invariant_sweep",
        params={"runs": len(observations)},
        observations=observations,
        passed=total == 0)

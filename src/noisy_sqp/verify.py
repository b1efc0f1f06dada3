"""Independent oracles: finite differences, perturbation scans, trace auditing.

Nothing in this module shares code with the solver path it checks; it reads only
the solver's constants and the trace table's columns (a text field holds a name such
as `steps.TT1`; `StepBundle`'s views).  The trace audit re-checks the termination
tests and the paper's invariants from scratch against the raw recorded data: `audit`
evaluates each condition over the table's columns and returns it as a `Condition` per
record, with its two sides, its slack and whether it held; `assert_trace_invariants`
lists the failing ones.  The perturbation scans verify the scaling laws of the noisy
step components (their formal constants are unobservable, so the testable content is
linear scaling in the noise level plus exact collapse at zero noise).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .driver import solve
from .linalg import smallest_singular_value
from .merit import (GAMMA_C, KAPPA_RHO_R, LAMBDA_RHO_R, LAMBDA_U, LAMBDA_UV, LAMBDA_V, SIGMA_C,
                    SIGMA_JC, SIGMA_R, SIGMA_U)
from .stepsize import BETA, ETA, LS_ETA
from .noise import NoiseSpec, sample_noisy
from .problems import evaluate
from .steps import EXACT_FALLBACK, TT1, TT2_CASE2, StepBundle

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
    base = evaluate(problem, x)
    pairs = [(evaluate(problem, x + e), evaluate(problem, x - e))
             for e in FD_STEP * np.eye(problem.n)]  # the central differences along each axis
    g_fd = np.array([(plus.f - minus.f) / (2 * FD_STEP) for plus, minus in pairs])
    J_fd = np.array([(plus.c - minus.c) / (2 * FD_STEP) for plus, minus in pairs]).T
    return float(np.max(np.abs(g_fd - base.g))), float(np.max(np.abs(J_fd - base.J)))


# each row's a @ b and A @ x by stacked @, which keeps the bits of its 1-D product, and its
# norm; _max and _min are Python's max and min: a unless b > a (b < a), so a NaN b never wins
_dot = lambda a, b: (a[..., None, :] @ b[..., None])[..., 0, 0]
_mv = lambda A, x: (A @ x[..., None])[..., 0]
_nrm = lambda a: np.sqrt(_dot(a, a))
_max = lambda a, b: np.where(b > a, b, a)
_min = lambda a, b: np.where(b < a, b, a)


def _cauchy_step(c, J, sigma_Jc):
    # the Cauchy point, coded apart from the normal step's CG on purpose; of each row
    # when c and J are stacks of rows
    Jtc = _mv(J.swapaxes(-1, -2), c)
    JJtc = _mv(J, Jtc)
    denom = _dot(JJtc, JJtc)
    zero = denom == 0.0  # no division there
    alpha = np.where(zero, sigma_Jc, _min(sigma_Jc, _dot(Jtc, Jtc) / np.where(zero, 1.0, denom)))
    return alpha[..., None] * -Jtc


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

    Scans eps = 1e-2, ..., 1e-8 with seeds 0..n_seeds-1 and sigma_Jc =
    `merit.SIGMA_JC`.  Pass criterion: the max ratio ||noisy step - exact
    step|| / eps stays within 10x of its value at the anchor eps = 1e-5.
    """
    ex = evaluate(problem, x)
    if smallest_singular_value(ex.J) < 1e-3:
        raise ValueError("Jacobian not full rank at the scan point")
    if np.linalg.norm(ex.J.T @ ex.c) < 1e-6:
        raise ValueError("||J'c|| not bounded away from zero at the scan point")

    return _scaling_scan("cauchy_perturbation_scan", problem, x, n_seeds, ("eps_c", "eps_J"),
                         "both", lambda g, c, J: _cauchy_step(c, J, SIGMA_JC), range(2, 9),
                         anchor=1e-5, scale=1.0, sigma_Jc=SIGMA_JC)


def tangential_gap_scan(problem, x, n_seeds: int = 20) -> PerturbationReport:
    """Scaling law of the exact tangential solutions under gradient/Jacobian noise.

    Uses exact saddle solves on both sides (zero residuals, zero normal
    component at a feasible point) over eps_g = eps_J = eps = 1e-2, 1e-3,
    ..., 1e-6 with seeds 0..n_seeds-1, and requires the error /
    (eps_g + eps_J) ratio to stay within 10x of its value at the anchor
    eps = 1e-2, the largest.
    """
    if problem.m >= problem.n:
        raise ValueError("null space of J must be nontrivial (need m < n)")
    H = np.eye(problem.n)
    return _scaling_scan("tangential_gap_scan", problem, x, n_seeds, ("eps_g", "eps_J"),
                         "derivative", lambda g, c, J: _null_space_solution(H, J, g), range(2, 7),
                         anchor=1e-2, scale=2.0)


def _scaling_scan(check, problem, x, n_seeds, bounds, want, step, powers, anchor, scale,
                  **params) -> PerturbationReport:
    """At each eps = 10^-p, the largest ||step(noisy g, c, J) - step(exact g, c, J)|| over
    seeds 0..n_seeds-1 with the noise ``bounds`` at eps, and its ratio to scale * eps; the
    scan passes when every ratio is within 10x of the anchor eps's."""
    ex = evaluate(problem, x)
    exact = step(ex.g, ex.c, ex.J)
    observations = []
    for eps in [10.0 ** (-p) for p in powers]:
        spec = NoiseSpec(**dict.fromkeys(bounds, eps))
        worst = 0.0
        for s in range(n_seeds):
            noisy = sample_noisy(problem, spec, x, np.random.default_rng(s), want=want)
            error = np.linalg.norm(step(noisy.g_bar, noisy.c_bar, noisy.J_bar) - exact)
            worst = max(worst, float(error))
        observations.append({"eps": eps, "max_error": worst, "ratio": worst / (scale * eps)})
    ratios = {o["eps"]: o["ratio"] for o in observations}
    return PerturbationReport(
        check=check, params={"problem": problem.name, "x": list(map(float, x)),
                             "n_seeds": n_seeds, "seed0": 0, **params},
        observations=observations, passed=all(r <= 10.0 * ratios[anchor] for r in ratios.values()))


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


def _conditions(name, k, lhs, rhs, slack=0.0, given=True) -> list[Condition]:
    """The conditions lhs <= rhs + slack at the records ``k``, each held unless
    lhs > rhs + slack or ``given`` fails there; a lower bound arrives negated."""
    columns = np.broadcast_arrays(lhs, rhs, slack, given & ~(lhs > rhs + slack))
    return list(map(Condition, k.tolist(), [name] * len(k), *(a.tolist() for a in columns)))


@np.errstate(over="ignore", invalid="ignore")
def audit(trace) -> list[Condition]:
    """Re-check every recorded per-iteration invariant: one `Condition` per check and
    record that carries it, ordered check by check.  A check is one expression over the
    rows that a presence mask or test name selects, formed from their raw recorded data."""
    if not trace.size:
        return []
    rows = np.concatenate(trace.chunks())
    tau = rows["tau"]
    found = _conditions(TAU_INCREASED, np.arange(1, trace.size), tau[1:], tau[:-1], 1e-15)

    ks = np.flatnonzero(rows["has"]["chi"])  # the controlled steps
    rec = rows[ks]
    chi, zeta, xi, alpha_suff = rec["chi"], rec["zeta"], rec["xi"], rec["alpha_suff"]
    least = _min(_min(chi, zeta), xi)
    found += (_conditions("chi decreased", ks[1:], -chi[1:], -chi[:-1], 1e-15)
              + _conditions("zeta increased", ks[1:], zeta[1:], zeta[:-1], 1e-15)
              + _conditions("xi increased", ks[1:], xi[1:], xi[:-1], 1e-15)
              + _conditions("alpha ordering alpha <= alpha_suff <= 1 broken", ks, rec["alpha"],
                            alpha_suff, 1e-12, given=alpha_suff <= 1.0 + 1e-12)
              + _conditions("alpha_min > alpha_max", ks, rec["alpha_min"], rec["alpha_max"], 1e-12)
              + _conditions("controller sequence not positive", ks, -least, -0.0, given=least > 0))

    ks = np.flatnonzero(rows["has"]["phi_accept"])  # the accepted line searches
    rec = rows[ks]
    found += _conditions("accepted step violates relaxed Armijo", ks, rec["phi_accept"],
                         rec["phi0"] - LS_ETA * rec["alpha"] * rec["delta_l"] + rec["relax"],
                         1e-10 * _max(1.0, abs(rec["phi0"])))

    # the records with a step bundle: its declared termination test and step bounds
    ks = np.flatnonzero(rows["has"]["test"])
    rec = rows[ks]
    b = StepBundle(rec["v"], rec["z"], rec["resid"], rec["test"])
    g, c, J, u, v, d, r = rec["g_bar"], rec["c_bar"], rec["J_bar"], b.u, b.v, b.d, b.r
    H, eps_o, state, slack = trace.H, trace.eps_o, trace.adaptive_state, 1e-9
    if state is not None:  # Lipschitz estimates held constant: alpha_suff is recomputable
        t = rows["has"]["chi"][ks]
        suff = _min(2.0 * (1.0 - ETA) * BETA * rec["delta_l"][t]
                    / ((rec["tau"][t] * state.L_est + state.Gamma_est) * _dot(d[t], d[t])), 1.0)
        found += _conditions("alpha_suff does not match recomputation", ks[t],
                             abs(suff - rec["alpha_suff"][t]), 0.0, 1e-10 * _max(1.0, suff))
    t = ks < trace.size - 1  # x_{k+1} = x_k + alpha_k d_k
    x_next = rows["x"][ks[t] + 1]
    drift = np.max(abs(x_next - (rec["x"][t] + rec["alpha"][t, None] * d[t])), axis=1)
    found += _conditions("iterate update identity broken", ks[t], drift, 0.0,
                         1e-12 * _max(1.0, np.max(abs(x_next), axis=1)))
    uHu, uu, v_nrm, c_nrm = _dot(u, _mv(H, u)), _dot(u, u), _nrm(v), _nrm(c)
    Jtc = _nrm(_mv(J.swapaxes(1, 2), c))
    gate = LAMBDA_RHO_R * _min(_max(np.sqrt(uu), Jtc), KAPPA_RHO_R)
    resid = _max(_nrm(b.rho), _nrm(r))
    t = b.test == EXACT_FALLBACK
    # the dense solve of K z = -(g + Hv, 0), K = [[H, J'], [J, 0]], leaves at most its
    # LU round-off: residual within 1e-9 + 1e-13 (n + m) max|K| max|z|, here divided
    # by (n + m) max|K| so that no product of maxima overflows
    K_max = _max(np.max(abs(H)), np.max(abs(J[t]), axis=(1, 2)))
    found += _conditions("fallback residual not at round-off level", ks[t],
                         (resid[t] - 1e-9) / sum(J.shape[1:]) / K_max,
                         1e-13 * np.max(abs(b.z[t]), axis=1))
    case = np.where(t, rec["fallback_case"], b.test)  # the test each bundle passed

    t = case == TT1
    k1, tau_prev, gu, uHu1, uu1 = ks[t], rec["tau_prev"][t], _dot(g[t], u[t]), uHu[t], uu[t]
    dl_prev_u = -tau_prev * gu + c_nrm[t] - _nrm(c[t] + _mv(J[t], u[t]))
    found += (_conditions("TT1 with nonzero normal component", k1, v_nrm[t], 0.0)
              + _conditions("TT1 residual gate fails on recheck", k1, resid[t], gate[t], slack)
              + _conditions("TT1 curvature condition fails on recheck", k1, -uHu1,
                            -(LAMBDA_U * uu1 - eps_o), slack)
              + _conditions("TT1 objective-model condition fails on recheck", k1,
                            gu + 0.5 * uHu1, eps_o, slack)
              + _conditions("TT1 model-reduction condition fails on recheck", k1, -dl_prev_u,
                            -(tau_prev * SIGMA_U * _max(uHu1, LAMBDA_U * uu1) - eps_o), slack))
    t &= (rec["alpha"] > 0.0) & rows["has"]["delta_l"][ks]  # the unrelaxed lower bound
    found += _conditions("feasible-branch model reduction lower bound fails", ks[t],
                         -rec["delta_l"][t],
                         -(rec["tau"][t] * SIGMA_U * LAMBDA_U / 2.0 * _dot(d[t], d[t])), 1e-10)

    # TT2, case 2 or condition 1, from here on: each name keeps its TT2 records' values
    t = case != TT1
    ks, g, c, J, u, v, d, r, uHu, uu, v_nrm, c_nrm, Jtc, gate, resid, case, tau_prev = (
        a[t] for a in (ks, g, c, J, u, v, d, r, uHu, uu, v_nrm, c_nrm, Jtc, gate, resid, case,
                       rec["tau_prev"]))
    found += _conditions("TT2 residual gate fails on recheck", ks, resid, gate, slack)
    t = np.sqrt(uu) > LAMBDA_UV * v_nrm + slack  # u dominates: curvature, given the slope
    descent = _dot(g[t] + _mv(H, v[t]), u[t]) + _max(0.5, 1.0 - Jtc[t]) * uHu[t]
    found += _conditions("TT2 dominance/curvature condition fails on recheck", ks[t], -uHu[t],
                         -(LAMBDA_U * uu[t]), slack, given=descent <= LAMBDA_V * v_nrm[t] + slack)
    c_v = c + _mv(J, v)
    dec_v = c_nrm - _nrm(c_v)
    t = case != TT2_CASE2
    found += _conditions("TT2 residual-decrease condition fails on recheck", ks[t],
                         -(c_nrm[t] - _nrm(c_v[t] + r[t])), -(SIGMA_R * dec_v[t]), slack,
                         given=dec_v[t] > 0.0)
    t = ~t
    dl_prev_d = -tau_prev[t] * _dot(g[t], d[t]) + c_nrm[t] - _nrm(c[t] + _mv(J[t], d[t]))
    found += _conditions("TT2 case-2 model reduction fails on recheck", ks[t], -dl_prev_d,
                         -(tau_prev[t] * SIGMA_U * _max(uHu[t], LAMBDA_U * uu[t])
                           + SIGMA_C * dec_v[t]), slack)
    step = _cauchy_step(c, J, SIGMA_JC)  # an independently coded Cauchy point
    return found + (
        _conditions("normal trust region bound fails on recheck", ks, v_nrm,
                    SIGMA_JC * Jtc * (1.0 + 1e-12), slack)
        + _conditions("Cauchy decrease condition fails on recheck", ks, -dec_v,
                      -(GAMMA_C * (c_nrm - _nrm(c + _mv(J, step)))), 1e-9 * _max(1.0, c_nrm)))


def assert_trace_invariants(trace, params) -> list:
    """The failing conditions' messages, empty when the trace passes; ``params``,
    the run's `SolverParams`, stays for the callers that pass it."""
    return [c.message for c in audit(trace) if not c.held]


def trace_invariant_sweep(problems, params_list, seeds) -> PerturbationReport:
    """Solve every (problem, params, seed) and collect all trace-invariant violations."""
    observations = []
    for problem in problems:
        for params in params_list:
            for seed in seeds:
                bad = assert_trace_invariants(solve(problem, params, seed), params)
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
        passed=not any(o["violations"] for o in observations))

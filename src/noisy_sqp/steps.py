"""Normal and tangential step computation with the two termination tests.

The normal component reduces linearized infeasibility inside a trust region
proportional to ||J'c|| and must retain a fixed fraction of the Cauchy
point's decrease.  The tangential component comes from a symmetric Krylov
solve of the saddle system whose iterates are accepted as soon as one of
the two termination tests holds together with a noise-scaled residual gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    cg_steihaug,
    dense_kkt_solve,
    minres_iterate,
    norm2,
    norm_inf,
)
from .merit import model_reduction

TT1 = "TT1"
TT2_CASE2 = "TT2_case2"
TT2_COND1 = "TT2_cond1"
EXACT_FALLBACK = "exact_fallback"


class TestUnsatisfiable(Exception):
    """Even the exact tangential solution fails the branch's termination test."""


@dataclass
class TestParams:
    """Constants of the termination tests and the normal trust region."""

    lambda_rho_r: float = 0.5
    kappa_rho_r: float = 1e2
    lambda_u: float = 5e-9
    lambda_uv: float = 1e4
    lambda_v: float = 1e4
    sigma_u: float = 0.99
    sigma_c: float = 0.1
    sigma_r: float = 0.9999
    gamma_c: float = 0.9
    sigma_Jc: float = 1e2

    def __post_init__(self):
        if not 0.0 < self.lambda_rho_r < 1.0:
            raise ValueError("lambda_rho_r must be in (0,1)")
        if self.kappa_rho_r <= 0 or self.lambda_uv <= 0 or self.lambda_v <= 0:
            raise ValueError("kappa_rho_r, lambda_uv, lambda_v must be > 0")
        if self.lambda_u <= 0:
            raise ValueError("lambda_u must be in (0, zeta_H)")
        if not 0.0 < self.sigma_u < 1.0:
            raise ValueError("sigma_u must be in (0,1)")
        if not 0.0 < self.sigma_c < 1.0:
            raise ValueError("sigma_c must be in (0,1)")
        if not self.sigma_c < self.sigma_r < 1.0:
            raise ValueError("sigma_r must be in (sigma_c, 1)")
        if not 0.0 < self.gamma_c <= 1.0:
            raise ValueError("gamma_c must be in (0,1]")
        if self.sigma_Jc <= 0:
            raise ValueError("sigma_Jc must be > 0")


@dataclass
class StepBundle:
    """Assembled search direction with the residuals that justified acceptance."""

    v: np.ndarray
    u: np.ndarray
    d: np.ndarray
    y: np.ndarray
    rho: np.ndarray
    r: np.ndarray
    test: str
    minres_iters: int = 0
    cg_iters: int = 0
    fallback_case: str | None = None  # tag of the test behind an exact_fallback


def tol_Jc(c_bar) -> float:
    """Numerical meaning of ||J'c|| = 0 on the infeasible-stationary line."""
    return 1e-12 * max(1.0, norm_inf(c_bar))


def cauchy_normal_step(c_bar, J_bar, sigma_Jc: float):
    """Steepest-descent direction -J'c with its capped optimal step size.

    Returns (v_c, alpha_c) with alpha_c = min{sigma_Jc, ||J'c||^2 / ||JJ'c||^2}.
    """
    c_bar = np.asarray(c_bar, dtype=float)
    J_bar = np.asarray(J_bar, dtype=float)
    Jtc = J_bar.T @ c_bar
    v_c = -Jtc
    JJtc = J_bar @ Jtc
    denom = float(JJtc @ JJtc)
    if denom == 0.0:
        alpha_c = sigma_Jc
    else:
        alpha_c = min(sigma_Jc, float(Jtc @ Jtc) / denom)
    return v_c, alpha_c


def normal_step(c_bar, J_bar, params: TestParams, kappa_v: float,
                eps_f: float, eps_c: float, exact: bool = False):
    """Inexact normal component via trust-region CG on 1/2 ||c + Jv||^2.

    CG runs in the Krylov space of J'c, hence v stays in Range(J').  It stops
    at the trust-region boundary or once the residual J'Jv + J'c passes the
    noise-scaled gate.  The caller has already taken the infeasible-stationary
    exit when J'c is numerically zero (`tol_Jc`).
    """
    c_bar = np.asarray(c_bar, dtype=float)
    J_bar = np.asarray(J_bar, dtype=float)
    v_c, alpha_c = cauchy_normal_step(c_bar, J_bar, params.sigma_Jc)
    Jtc = -v_c
    v_cauchy = alpha_c * v_c
    c_norm = norm2(c_bar)
    cauchy_target = params.gamma_c * (c_norm - norm2(c_bar + J_bar @ v_cauchy))
    radius = params.sigma_Jc * norm2(Jtc)
    coef = 1e-10 if exact else kappa_v * min(eps_c, eps_f)
    threshold = coef * max(1.0, norm_inf(Jtc))

    def apply_H(p):
        return J_bar.T @ (J_bar @ p)

    v, _, iters = cg_steihaug(apply_H, Jtc, radius,
                              stop=lambda resid: norm_inf(resid) <= threshold)
    # CG's first iterate is the Cauchy point, so the decrease condition holds
    # at exit by monotonicity; fall back to the Cauchy point defensively.
    if c_norm - norm2(c_bar + J_bar @ v) < cauchy_target - 1e-10 * max(1.0, c_norm):
        v = v_cauchy
    return v, iters


def _round_off_slack(g_bar, c_bar) -> float:
    # the tests are stated for exact arithmetic; near convergence the solver
    # residual round-off dominates u'Hu, so the inequalities get a tiny
    # scale-aware slack
    return 1e-13 * max(1.0, norm2(g_bar), norm2(c_bar))


def check_tt1(H, g_bar, c_bar, J_bar, u, rho, r, tau_prev: float,
              params: TestParams, eps_o: float) -> bool:
    """Termination Test 1 (feasible branch, v = 0); all four conditions, 2-norms."""
    u = np.asarray(u)
    Hu = np.asarray(H) @ u
    uHu = float(u @ Hu)
    u_nrm2 = float(u @ u)
    Jtc_norm = norm2(np.asarray(J_bar).T @ np.asarray(c_bar))
    slack = _round_off_slack(g_bar, c_bar)
    res_gate = params.lambda_rho_r * min(max(norm2(u), Jtc_norm), params.kappa_rho_r)
    if max(norm2(rho), norm2(r)) > res_gate:
        return False
    if uHu < params.lambda_u * u_nrm2 - eps_o - slack:
        return False
    if float(np.asarray(g_bar) @ u) + 0.5 * uHu > eps_o + slack:
        return False
    dl = model_reduction(tau_prev, g_bar, c_bar, J_bar, u)
    if dl < tau_prev * params.sigma_u * max(uHu, params.lambda_u * u_nrm2) - eps_o - slack:
        return False
    return True


def check_tt2(H, g_bar, c_bar, J_bar, v, u, rho, r, tau_prev: float,
              params: TestParams) -> str | None:
    """Termination Test 2 (infeasible branch); returns TT2_CASE2, TT2_COND1 or None.

    Case 2 has priority because it keeps the merit parameter unchanged.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    H = np.asarray(H)
    c_bar = np.asarray(c_bar)
    J_bar = np.asarray(J_bar)
    Hu = H @ u
    uHu = float(u @ Hu)
    u_nrm = norm2(u)
    v_nrm = norm2(v)
    Jtc_norm = norm2(J_bar.T @ c_bar)

    slack = _round_off_slack(g_bar, c_bar)
    res_gate = params.lambda_rho_r * min(max(u_nrm, Jtc_norm), params.kappa_rho_r)
    if max(norm2(rho), norm2(r)) > res_gate:
        return None

    if u_nrm > params.lambda_uv * v_nrm:
        curvature_ok = uHu >= params.lambda_u * u_nrm * u_nrm - slack
        slope = float((np.asarray(g_bar) + H @ v) @ u)
        weight = max(0.5, 1.0 - Jtc_norm)
        if not (curvature_ok and slope + weight * uHu <= params.lambda_v * v_nrm + slack):
            return None

    d = v + u
    c_norm = norm2(c_bar)
    c_v_norm = norm2(c_bar + J_bar @ v)
    c_vr_norm = norm2(c_bar + J_bar @ v + np.asarray(r))
    dl = model_reduction(tau_prev, g_bar, c_bar, J_bar, d)
    if dl >= tau_prev * params.sigma_u * max(uHu, params.lambda_u * u_nrm * u_nrm) \
            + params.sigma_c * (c_norm - c_v_norm) - slack:
        return TT2_CASE2
    if (c_norm - c_v_norm > 0.0
            and c_norm - c_vr_norm >= params.sigma_r * (c_norm - c_v_norm) - slack):
        return TT2_COND1
    return None


def tangential_step(H, J_bar, g_bar, v, c_bar, tau_prev: float,
                    params: TestParams, eps_o: float, kappa_u: float,
                    eps_f: float, eps_c: float, exact: bool = False, *,
                    feasible: bool) -> StepBundle:
    """Inexact tangential component via the symmetric Krylov solver.

    Iterates of the saddle system are checked against the branch's
    termination test (TT1 when ``feasible``, else TT2) and the noise-scaled
    residual gate after every step.  When the solver breaks down (at the
    latest after 2(n+m) steps) without acceptance, the dense solve takes
    over and the test is re-checked on the exact solution (tag
    exact_fallback, with the passing test's tag in ``fallback_case``).
    """
    H = np.asarray(H, dtype=float)
    J_bar = np.asarray(J_bar, dtype=float)
    g_bar = np.asarray(g_bar, dtype=float)
    v = np.asarray(v, dtype=float)
    c_bar = np.asarray(c_bar, dtype=float)
    m, n = J_bar.shape

    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = J_bar.T
    K[n:, :n] = J_bar
    b = np.concatenate([g_bar + H @ v, np.zeros(m)])

    coef = 1e-10 if exact else kappa_u * min(eps_c, eps_f)
    Jtc_inf = norm_inf(J_bar.T @ c_bar)

    def passed_test(z, resid):
        """Tag of the branch's termination test at candidate z, or None."""
        u, rho, r = z[:n], resid[:n], resid[n:]
        if not feasible:
            return check_tt2(H, g_bar, c_bar, J_bar, v, u, rho, r, tau_prev, params)
        if check_tt1(H, g_bar, c_bar, J_bar, u, rho, r, tau_prev, params, eps_o):
            return TT1
        return None

    def accept(z):
        resid = K @ z + b
        gate = coef * max(min(max(norm_inf(z[:n]), Jtc_inf), 1e2), 1e-2)
        if norm_inf(resid) > gate:
            return None, resid
        return passed_test(z, resid), resid

    state = None
    z = np.zeros(n + m)
    tag, resid = accept(z)
    iters = 0
    while tag is None and (state is None or not state.breakdown):
        z, state = minres_iterate(lambda p: K @ p, -b, state)
        iters += 1
        tag, resid = accept(z)

    fallback_case = None
    if tag is None:
        # dense fallback; residuals vanish up to round-off
        z = np.concatenate(dense_kkt_solve(H, J_bar, g_bar + H @ v))
        resid = K @ z + b
        fallback_case = passed_test(z, resid)
        if fallback_case is None:
            raise TestUnsatisfiable(
                f"exact solution fails Termination Test {1 if feasible else 2}")
        tag = EXACT_FALLBACK
    u = z[:n]
    return StepBundle(v=v, u=u, d=v + u, y=z[n:], rho=resid[:n], r=resid[n:],
                      test=tag, minres_iters=iters, fallback_case=fallback_case)

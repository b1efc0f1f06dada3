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
    # model reduction at tau_prev along d that the accepting TT2 check formed
    tt2_delta_l: float | None = None


def tol_Jc(c_bar) -> float:
    """Numerical meaning of ||J'c|| = 0 on the infeasible-stationary line."""
    return 1e-12 * max(1.0, norm_inf(c_bar))


# The functions below take float ndarrays.  The keywords ``Jtc`` (J'c),
# ``Jtc_inf`` (max|J'c|) and ``c_norm`` (||c||) pass quantities the caller
# has already (the driver forms them once per iteration); each is formed
# here otherwise.


def cauchy_normal_step(c_bar, J_bar, sigma_Jc: float, *, Jtc=None):
    """Steepest-descent direction -J'c with its capped optimal step size.

    Returns (v_c, alpha_c) with alpha_c = min{sigma_Jc, ||J'c||^2 / ||JJ'c||^2}.
    """
    if Jtc is None:
        Jtc = J_bar.T @ c_bar
    v_c = -Jtc
    JJtc = J_bar.dot(Jtc)
    denom = float(JJtc.dot(JJtc))
    if denom == 0.0:
        alpha_c = sigma_Jc
    else:
        alpha_c = min(sigma_Jc, float(Jtc.dot(Jtc)) / denom)
    return v_c, alpha_c


def normal_step(c_bar, J_bar, params: TestParams, kappa_v: float,
                eps_f: float, eps_c: float, exact: bool = False, *, Jtc=None,
                Jtc_inf=None, c_norm=None):
    """Inexact normal component via trust-region CG on 1/2 ||c + Jv||^2.

    CG runs in the Krylov space of J'c, hence v stays in Range(J').  It stops
    at the trust-region boundary or once the residual J'Jv + J'c passes the
    noise-scaled gate.  The caller has already taken the infeasible-stationary
    exit when J'c is numerically zero (`tol_Jc`).
    """
    Jt = J_bar.T
    if Jtc is None:
        Jtc = Jt @ c_bar
    v_c, alpha_c = cauchy_normal_step(c_bar, J_bar, params.sigma_Jc, Jtc=Jtc)
    v_cauchy = alpha_c * v_c
    if c_norm is None:
        c_norm = norm2(c_bar)
    cauchy_target = params.gamma_c * (c_norm - norm2(c_bar + J_bar.dot(v_cauchy)))
    radius = params.sigma_Jc * norm2(Jtc)
    coef = 1e-10 if exact else kappa_v * min(eps_c, eps_f)
    if Jtc_inf is None:
        Jtc_inf = norm_inf(Jtc)
    threshold = coef * max(1.0, Jtc_inf)

    v, _, iters = cg_steihaug(lambda p: Jt.dot(J_bar.dot(p)), Jtc, radius,
                              stop=lambda resid: np.maximum.reduce(abs(resid)) <= threshold)
    # CG's first iterate is the Cauchy point, so the decrease condition holds
    # at exit by monotonicity; fall back to the Cauchy point defensively.
    if c_norm - norm2(c_bar + J_bar.dot(v)) < cauchy_target - 1e-10 * max(1.0, c_norm):
        v = v_cauchy
    return v, iters


def _round_off_slack(g_norm: float, c_norm: float) -> float:
    # the tests are stated for exact arithmetic; near convergence the solver
    # residual round-off dominates u'Hu, so the inequalities get a tiny
    # scale-aware slack
    return 1e-13 * max(1.0, g_norm, c_norm)


def check_tt1(H, g_bar, c_bar, J_bar, u, rho, r, tau_prev: float,
              params: TestParams, eps_o: float, *, Jtc=None, c_norm=None) -> bool:
    """Termination Test 1 (feasible branch, v = 0); all four conditions, 2-norms."""
    uHu = float(u.dot(H.dot(u)))
    u_nrm2 = float(u.dot(u))
    Jtc_norm = norm2(J_bar.T @ c_bar if Jtc is None else Jtc)
    if c_norm is None:
        c_norm = norm2(c_bar)
    slack = _round_off_slack(norm2(g_bar), c_norm)
    res_gate = params.lambda_rho_r * min(max(norm2(u), Jtc_norm), params.kappa_rho_r)
    if max(norm2(rho), norm2(r)) > res_gate:
        return False
    if uHu < params.lambda_u * u_nrm2 - eps_o - slack:
        return False
    if float(g_bar.dot(u)) + 0.5 * uHu > eps_o + slack:
        return False
    dl = model_reduction(tau_prev, g_bar, c_bar, J_bar, u, c_norm=c_norm)
    if dl < tau_prev * params.sigma_u * max(uHu, params.lambda_u * u_nrm2) - eps_o - slack:
        return False
    return True


def check_tt2(H, g_bar, c_bar, J_bar, v, u, rho, r, tau_prev: float,
              params: TestParams, *, Jtc=None, c_norm=None,
              dl_out: list | None = None) -> str | None:
    """Termination Test 2 (infeasible branch); returns TT2_CASE2, TT2_COND1 or None.

    Case 2 has priority because it keeps the merit parameter unchanged.
    When given, ``dl_out`` receives the model reduction at ``tau_prev``
    along d = v + u once the test has formed it.
    """
    uHu = float(u.dot(H.dot(u)))
    u_nrm = norm2(u)
    v_nrm = norm2(v)
    Jtc_norm = norm2(J_bar.T @ c_bar if Jtc is None else Jtc)

    if c_norm is None:
        c_norm = norm2(c_bar)
    slack = _round_off_slack(norm2(g_bar), c_norm)
    res_gate = params.lambda_rho_r * min(max(u_nrm, Jtc_norm), params.kappa_rho_r)
    if max(norm2(rho), norm2(r)) > res_gate:
        return None

    if u_nrm > params.lambda_uv * v_nrm:
        curvature_ok = uHu >= params.lambda_u * u_nrm * u_nrm - slack
        slope = float((g_bar + H.dot(v)).dot(u))
        weight = max(0.5, 1.0 - Jtc_norm)
        if not (curvature_ok and slope + weight * uHu <= params.lambda_v * v_nrm + slack):
            return None

    d = v + u
    c_v = c_bar + J_bar.dot(v)
    c_v_norm = norm2(c_v)
    c_vr_norm = norm2(c_v + r)
    dl = model_reduction(tau_prev, g_bar, c_bar, J_bar, d, c_norm=c_norm)
    if dl_out is not None:
        dl_out.append(dl)
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
                    feasible: bool, Jtc=None, Jtc_inf=None,
                    c_norm=None) -> StepBundle:
    """Inexact tangential component via the symmetric Krylov solver.

    Iterates of the saddle system are checked against the noise-scaled
    residual gate and, once that passes, the branch's termination test (TT1
    when ``feasible``, else TT2) after every step.  When the solver breaks
    down (at the latest after 2(n+m) steps) without acceptance, the dense
    solve takes over and the test is re-checked on the exact solution (tag
    exact_fallback, with the passing test's tag in ``fallback_case``).
    Under TT2 the bundle keeps the model reduction the accepting check
    formed (``tt2_delta_l``).
    """
    m, n = J_bar.shape
    Jt = J_bar.T
    if Jtc is None:
        Jtc = Jt @ c_bar
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = Jt
    K[n:, :n] = J_bar
    b = np.concatenate((g_bar + H.dot(v), np.zeros(m)))
    apply_K = K.dot

    coef = 1e-10 if exact else kappa_u * min(eps_c, eps_f)
    if Jtc_inf is None:
        Jtc_inf = norm_inf(Jtc)
    reductions = []  # model reductions formed by the TT2 checks, in order

    def passed_test(z, resid):
        """Tag of the branch's termination test at candidate z, or None."""
        u, rho, r = z[:n], resid[:n], resid[n:]
        if not feasible:
            return check_tt2(H, g_bar, c_bar, J_bar, v, u, rho, r, tau_prev, params,
                             Jtc=Jtc, c_norm=c_norm, dl_out=reductions)
        if check_tt1(H, g_bar, c_bar, J_bar, u, rho, r, tau_prev, params, eps_o,
                     Jtc=Jtc, c_norm=c_norm):
            return TT1
        return None

    minus_b = -b
    state = None
    z = np.zeros(n + m)
    iters = 0
    tag = None
    # the residual gate is coef * clip(min(max|u|, ||J'c||_inf), 1e-2, 1e2);
    # most candidates fail it at the upper clip already, before max|u| is
    # needed ("not >" lets a NaN residual through, as "<=" would not)
    gate_cap = coef * 1e2
    while True:
        resid = apply_K(z) + b
        resid_inf = np.maximum.reduce(abs(resid))
        if not resid_inf > gate_cap:
            gate = coef * max(min(max(np.maximum.reduce(abs(z[:n])), Jtc_inf), 1e2), 1e-2)
            if not resid_inf > gate:
                tag = passed_test(z, resid)
                if tag is not None:
                    break
        if state is not None and state.breakdown:
            break
        z, state = minres_iterate(apply_K, minus_b, state)
        iters += 1

    fallback_case = None
    if tag is None:
        # dense fallback; residuals vanish up to round-off
        z = np.concatenate(dense_kkt_solve(H, J_bar, b[:n]))
        resid = apply_K(z) + b
        fallback_case = passed_test(z, resid)
        if fallback_case is None:
            raise TestUnsatisfiable(
                f"exact solution fails Termination Test {1 if feasible else 2}")
        tag = EXACT_FALLBACK
    u = z[:n]
    # the accepting check was the last one and formed its reduction
    return StepBundle(v=v, u=u, d=v + u, y=z[n:], rho=resid[:n], r=resid[n:],
                      test=tag, minres_iters=iters, fallback_case=fallback_case,
                      tt2_delta_l=None if feasible else reductions[-1])

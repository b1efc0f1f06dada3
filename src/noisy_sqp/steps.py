"""Normal and tangential step computation with the two termination tests.

The normal component reduces linearized infeasibility inside a trust region
proportional to ||J'c|| and must retain a fixed fraction of the Cauchy
point's decrease.  The tangential component comes from a symmetric Krylov
solve of the saddle system whose iterates are accepted as soon as one of
the two termination tests holds together with a noise-scaled residual gate.

Each function reads the iteration's noisy linearization from one
`merit.Linearization` (g, c and J with J'c, ||J'c|| and max|J'c|, ||c|| and
||g||, each formed once), and the tangential step and TT2 read the normal
step's c + Jv and ||c + Jv|| from its `NormalStep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    cg_steihaug,
    dense_kkt_solve,
    minres_iterate,
    norm2,
    norm_inf,
)
from .merit import Linearization, model_reduction

TT1 = "TT1"
TT2_CASE2 = "TT2_case2"
TT2_COND1 = "TT2_cond1"
EXACT_FALLBACK = "exact_fallback"


class TestUnsatisfiable(Exception):
    """Even the exact tangential solution fails the branch's termination test,
    or the dense solve cannot form it (H singular on the null space of J)."""


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


class NormalStep(NamedTuple):
    """Normal component v with c + Jv and ||c + Jv||, and its CG iterations."""

    v: np.ndarray
    c_v: np.ndarray
    c_v_norm: float
    cg_iters: int = 0


def tol_Jc(c_bar) -> float:
    """Numerical meaning of ||J'c|| = 0 on the infeasible-stationary line."""
    return 1e-12 * max(1.0, norm_inf(c_bar))


def cauchy_normal_step(lin: Linearization, sigma_Jc: float):
    """Steepest-descent direction -J'c with its capped optimal step size.

    Returns (v_c, alpha_c) with alpha_c = min{sigma_Jc, ||J'c||^2 / ||JJ'c||^2}.
    """
    JJtc = lin.J.dot(lin.Jtc)
    denom = float(JJtc.dot(JJtc))
    if denom == 0.0:
        alpha_c = sigma_Jc
    else:
        alpha_c = min(sigma_Jc, lin.Jtc_sq / denom)
    return -lin.Jtc, alpha_c


def normal_step(lin: Linearization, params: TestParams, kappa_v: float,
                eps_f: float, eps_c: float, exact: bool = False) -> NormalStep:
    """Inexact normal component via trust-region CG on 1/2 ||c + Jv||^2.

    CG runs in the Krylov space of J'c, hence v stays in Range(J').  It stops
    at the trust-region boundary or once the residual J'Jv + J'c passes the
    noise-scaled gate.  The caller has already taken the infeasible-stationary
    exit when J'c is numerically zero (`tol_Jc`).  The Cauchy point's decrease
    of ||c|| is at most ||c||, in floating point too, so it is formed only when
    CG's decrease falls short of gamma_c ||c||, and replaces CG's step when
    CG's decrease falls short of gamma_c times its decrease as well.
    """
    c, J = lin.c, lin.J
    Jt = J.T
    radius = params.sigma_Jc * lin.Jtc_norm
    coef = 1e-10 if exact else kappa_v * min(eps_c, eps_f)
    threshold = coef * max(1.0, lin.Jtc_inf)

    v, _, iters = cg_steihaug(lambda p: Jt.dot(J.dot(p)), lin.Jtc, radius,
                              stop=lambda resid: norm_inf(resid) <= threshold)
    c_v = c + J.dot(v)
    c_v_norm = norm2(c_v)
    decrease = lin.c_norm - c_v_norm
    slack = 1e-10 * max(1.0, lin.c_norm)
    if decrease >= params.gamma_c * lin.c_norm - slack:
        return NormalStep(v, c_v, c_v_norm, iters)
    # CG's first iterate is the Cauchy point, so the decrease condition holds
    # at exit by monotonicity; fall back to the Cauchy point defensively.
    v_c, alpha_c = cauchy_normal_step(lin, params.sigma_Jc)
    v_cauchy = alpha_c * v_c
    c_cauchy = c + J.dot(v_cauchy)
    c_cauchy_norm = norm2(c_cauchy)
    if decrease < params.gamma_c * (lin.c_norm - c_cauchy_norm) - slack:
        return NormalStep(v_cauchy, c_cauchy, c_cauchy_norm, iters)
    return NormalStep(v, c_v, c_v_norm, iters)


def _round_off_slack(g_norm: float, c_norm: float) -> float:
    # the tests are stated for exact arithmetic; near convergence the solver
    # residual round-off dominates u'Hu, so the inequalities get a tiny
    # scale-aware slack
    return 1e-13 * max(1.0, g_norm, c_norm)


def check_tt1(H, lin: Linearization, u, rho, r, tau_prev: float,
              params: TestParams, eps_o: float) -> bool:
    """Termination Test 1 (feasible branch, v = 0); all four conditions, 2-norms."""
    uHu = float(u.dot(H.dot(u)))
    u_nrm2 = float(u.dot(u))
    slack = _round_off_slack(lin.g_norm, lin.c_norm)
    res_gate = params.lambda_rho_r * min(max(norm2(u), lin.Jtc_norm), params.kappa_rho_r)
    if max(norm2(rho), norm2(r)) > res_gate:
        return False
    if uHu < params.lambda_u * u_nrm2 - eps_o - slack:
        return False
    if float(lin.g.dot(u)) + 0.5 * uHu > eps_o + slack:
        return False
    dl = model_reduction(tau_prev, lin, u)
    if dl < tau_prev * params.sigma_u * max(uHu, params.lambda_u * u_nrm2) - eps_o - slack:
        return False
    return True


def check_tt2(H, lin: Linearization, normal: NormalStep, u, rho, r,
              tau_prev: float, params: TestParams):
    """Termination Test 2 (infeasible branch) at the normal step and u.

    Returns (tag, d, model reduction at ``tau_prev`` along d = v + u) when
    the test passes, tag TT2_CASE2 or TT2_COND1, else (None, None, None).
    Case 2 has priority because it keeps the merit parameter unchanged.
    """
    v = normal.v
    uHu = float(u.dot(H.dot(u)))
    u_nrm = norm2(u)
    v_nrm = norm2(v)
    Jtc_norm = lin.Jtc_norm
    c_norm = lin.c_norm
    slack = _round_off_slack(lin.g_norm, c_norm)
    res_gate = params.lambda_rho_r * min(max(u_nrm, Jtc_norm), params.kappa_rho_r)
    if max(norm2(rho), norm2(r)) > res_gate:
        return None, None, None

    if u_nrm > params.lambda_uv * v_nrm:
        curvature_ok = uHu >= params.lambda_u * u_nrm * u_nrm - slack
        slope = float((lin.g + H.dot(v)).dot(u))
        weight = max(0.5, 1.0 - Jtc_norm)
        if not (curvature_ok and slope + weight * uHu <= params.lambda_v * v_nrm + slack):
            return None, None, None

    d = v + u
    c_v_norm = normal.c_v_norm
    c_vr_norm = norm2(normal.c_v + r)
    dl = model_reduction(tau_prev, lin, d)
    if dl >= tau_prev * params.sigma_u * max(uHu, params.lambda_u * u_nrm * u_nrm) \
            + params.sigma_c * (c_norm - c_v_norm) - slack:
        return TT2_CASE2, d, dl
    if (c_norm - c_v_norm > 0.0
            and c_norm - c_vr_norm >= params.sigma_r * (c_norm - c_v_norm) - slack):
        return TT2_COND1, d, dl
    return None, None, None


def tangential_step(H, lin: Linearization, normal: NormalStep, tau_prev: float,
                    params: TestParams, eps_o: float, kappa_u: float,
                    eps_f: float, eps_c: float, exact: bool = False, *,
                    feasible: bool) -> StepBundle:
    """Inexact tangential component via the symmetric Krylov solver.

    Iterates of the saddle system are checked against the noise-scaled
    residual gate and, once that passes, the branch's termination test (TT1
    when ``feasible``, else TT2) after every step.  When the solver breaks
    down (at the latest after 2(n+m) steps) without acceptance, the dense
    solve takes over and the test is re-checked on the exact solution (tag
    exact_fallback, with the passing test's tag in ``fallback_case``).
    Under TT2 the bundle keeps the d and the model reduction the accepting
    check formed (``tt2_delta_l``).
    """
    J_bar = lin.J
    m, n = J_bar.shape
    v = normal.v
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = J_bar.T
    K[n:, :n] = J_bar
    b = np.concatenate((lin.g + H.dot(v), np.zeros(m)))
    apply_K = K.dot

    coef = 1e-10 if exact else kappa_u * min(eps_c, eps_f)

    def passed_test(z, resid):
        """(tag, d, TT2 model reduction) of the branch's test at z; tag None on failure."""
        u, rho, r = z[:n], resid[:n], resid[n:]
        if not feasible:
            return check_tt2(H, lin, normal, u, rho, r, tau_prev, params)
        if check_tt1(H, lin, u, rho, r, tau_prev, params, eps_o):
            return TT1, v + u, None
        return None, None, None

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
        resid_inf = norm_inf(resid)
        if not resid_inf > gate_cap:
            gate = coef * max(min(max(norm_inf(z[:n]), lin.Jtc_inf), 1e2), 1e-2)
            if not resid_inf > gate:
                tag, d, dl = passed_test(z, resid)
                if tag is not None:
                    break
        if state is not None and state.breakdown:
            break
        z, state = minres_iterate(apply_K, minus_b, state)
        iters += 1

    fallback_case = None
    if tag is None:
        # dense fallback; residuals vanish up to round-off
        try:
            z = np.concatenate(dense_kkt_solve(H, J_bar, b[:n]))
        except np.linalg.LinAlgError as exc:  # H singular on null(J)
            raise TestUnsatisfiable(f"exact tangential solve failed: {exc}") from exc
        resid = apply_K(z) + b
        fallback_case, d, dl = passed_test(z, resid)
        if fallback_case is None:
            raise TestUnsatisfiable(
                f"exact solution fails Termination Test {1 if feasible else 2}")
        tag = EXACT_FALLBACK
    return StepBundle(v=v, u=z[:n], d=d, y=z[n:], rho=resid[:n], r=resid[n:],
                      test=tag, minres_iters=iters, cg_iters=normal.cg_iters,
                      fallback_case=fallback_case, tt2_delta_l=dl)

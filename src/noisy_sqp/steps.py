"""Normal and tangential step computation with the two termination tests.

The normal component reduces linearized infeasibility inside a trust region
proportional to ||J'c|| by trust-region CG.  CG's first iterate is the Cauchy
point and its later iterates never increase ||c + Jv||, so the step keeps the
Cauchy point's decrease.  The tangential component comes from a symmetric
Krylov solve of the saddle system whose iterates are accepted as soon as one
of the two termination tests holds together with a noise-scaled residual gate.

Each function reads the iteration's noisy linearization from one
`merit.Linearization` (g, c and J with J'c, ||J'c||, max|J'c|, ||c||, ||g||
and the round-off scale, each formed once), and the steps and tests read the
normal step's v, c + Jv and ||c + Jv|| from its `NormalStep`.  The passing
test's measurements ride in the `StepBundle` (v, the saddle system's solution
and residual; d = v + u formed on read) to the driver, whose trace keeps
its vectors in a record's row; no bundle means no test can pass.
The tests' and the trust region's constants are `merit`'s; their
inequalities, stated for exact arithmetic, allow the round-off scale as
slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import cg_steihaug, dense_kkt_solve, kkt_matrix, minres_iterate, norm2, norm_inf
from . import merit
from .merit import (KAPPA_RHO_R, LAMBDA_RHO_R, LAMBDA_U, LAMBDA_UV, LAMBDA_V, SIGMA_C,
                    SIGMA_JC, SIGMA_R, SIGMA_U, Linearization, model_reduction)

TT1 = "TT1"
TT2_CASE2 = "TT2_case2"
TT2_COND1 = "TT2_cond1"
EXACT_FALLBACK = "exact_fallback"


@dataclass(eq=False)
class StepBundle:
    """Assembled search direction with the residuals that justified acceptance.

    The saddle system's z = (u, y) and resid = (rho, r) are held once; u, y, rho and
    r are views into their last axis and d = v + u is formed on read, so d has no
    setter and a bundle over stacked rows of v, z and resid gives every row's."""

    v: np.ndarray
    z: np.ndarray
    resid: np.ndarray
    test: str
    minres_iters: int = 0
    cg_iters: int = 0
    fallback_case: str | None = None  # tag of the test behind an exact_fallback
    # the accepting check's g'd, ||c + Jd|| and (TT2_cond1 only) trial tau
    gd: float = 0.0
    cd_norm: float = 0.0
    tau_trial: float | None = None

    u = property(lambda self: self.z[..., :self.v.shape[-1]])
    y = property(lambda self: self.z[..., self.v.shape[-1]:])
    rho = property(lambda self: self.resid[..., :self.v.shape[-1]])
    r = property(lambda self: self.resid[..., self.v.shape[-1]:])
    d = property(lambda self: self.v + self.u)


class NormalStep(NamedTuple):
    """Normal component v with c + Jv and ||c + Jv||, and its CG iterations."""

    v: np.ndarray
    c_v: np.ndarray
    c_v_norm: float
    cg_iters: int = 0


def normal_step(lin: Linearization, coef: float) -> NormalStep:
    """Inexact normal component via trust-region CG on 1/2 ||c + Jv||^2.

    CG runs in the Krylov space of J'c, hence v stays in Range(J').  It stops at
    the trust-region boundary or once the residual J'Jv + J'c passes the
    noise-scaled gate coef * max(1, ||J'c||_inf).  The caller has already taken
    the infeasible-stationary exit when J'c is numerically zero.  CG's first
    iterate is the Cauchy point (the radius caps its step size at SIGMA_JC)
    and its later iterates never increase ||c + Jv||, so v keeps the Cauchy
    point's decrease of ||c||, the share GAMMA_C that `verify` rechecks.
    """
    c, J = lin.c, lin.J
    Jt = J.T
    radius = SIGMA_JC * lin.Jtc_norm
    threshold = coef * max(1.0, lin.Jtc_inf)

    v, _, iters = cg_steihaug(lambda p: Jt.dot(J.dot(p)), lin.Jtc, radius,
                              stop=lambda resid: norm_inf(resid) <= threshold)
    c_v = c + J.dot(v)
    return NormalStep(v, c_v, norm2(c_v), iters)


def _measure(H, lin: Linearization, normal: NormalStep, u, rho, r, tau_prev: float):
    """Both tests' measures of u: (u'Hu, u'u, ||u||, g'd, ||c + Jd||, model reduction
    along d at tau_prev) for d = v + u, or None when the residual gate fails."""
    uHu = float(u.dot(H.dot(u)))
    uu = float(u.dot(u))
    u_nrm = math.sqrt(uu)  # norm2's formula on the same dot
    if max(norm2(rho), norm2(r)) > LAMBDA_RHO_R * min(max(u_nrm, lin.Jtc_norm), KAPPA_RHO_R):
        return None
    d = normal.v + u
    gd, cd_norm = lin.along(d)
    return uHu, uu, u_nrm, gd, cd_norm, model_reduction(tau_prev, lin.c_norm, gd, cd_norm)


def check_tt1(H, lin: Linearization, normal: NormalStep, u, rho, r, tau_prev: float,
              eps_o: float):
    """Termination Test 1 (feasible branch, v = 0): `check_tt2`'s tuple or None."""
    measured = _measure(H, lin, normal, u, rho, r, tau_prev)
    if measured is None:
        return None
    uHu, uu, _, gd, cd_norm, dl = measured
    slack = lin.round_off
    if (uHu < LAMBDA_U * uu - eps_o - slack or gd + 0.5 * uHu > eps_o + slack
            or dl < tau_prev * SIGMA_U * max(uHu, LAMBDA_U * uu) - eps_o - slack):
        return None
    return TT1, gd, cd_norm, None


def check_tt2(H, lin: Linearization, normal: NormalStep, u, rho, r, tau_prev: float):
    """Termination Test 2 (infeasible branch) at the normal step and u.

    Returns (tag, g'd, ||c + Jd||, trial) along d = v + u when the test
    passes, tag TT2_CASE2 or TT2_COND1, else None.  Case 2 has priority
    because it keeps the merit parameter unchanged; under TT2_COND1 ``trial``
    is `merit.tau_trial` of the check's values, which must be > 0, else None.
    """
    measured = _measure(H, lin, normal, u, rho, r, tau_prev)
    if measured is None:
        return None
    uHu, uu, u_nrm, gd, cd_norm, dl = measured
    v_nrm = norm2(normal.v)
    c_norm = lin.c_norm
    slack = lin.round_off
    if u_nrm > LAMBDA_UV * v_nrm:
        curvature_ok = uHu >= LAMBDA_U * u_nrm * u_nrm - slack
        slope = float((lin.g + H.dot(normal.v)).dot(u))
        weight = max(0.5, 1.0 - lin.Jtc_norm)
        if not (curvature_ok and slope + weight * uHu <= LAMBDA_V * v_nrm + slack):
            return None

    c_v_norm = normal.c_v_norm
    if dl >= tau_prev * SIGMA_U * max(uHu, LAMBDA_U * u_nrm * u_nrm) \
            + SIGMA_C * (c_norm - c_v_norm) - slack:
        return TT2_CASE2, gd, cd_norm, None
    c_vr_norm = norm2(normal.c_v + r)
    if (c_norm - c_v_norm > 0.0
            and c_norm - c_vr_norm >= SIGMA_R * (c_norm - c_v_norm) - slack):
        trial = merit.tau_trial(gd, uHu, uu, c_norm, c_vr_norm)
        if trial > 0.0:  # the slack can let ||c + Jv + r|| exceed ||c||
            return TT2_COND1, gd, cd_norm, trial
    return None


def tangential_step(H, lin: Linearization, normal: NormalStep, tau_prev: float,
                    eps_o: float, coef: float, *, feasible: bool) -> tuple[StepBundle | None, int]:
    """Inexact tangential component via the symmetric Krylov solver.

    Iterates of the saddle system are checked against the noise-scaled
    residual gate (coefficient ``coef``) and, once that passes, the branch's
    termination test (TT1 when ``feasible``, else TT2) after every step.
    When the solver breaks down (at the latest after 2(n+m) steps) without
    acceptance, the dense solve takes over and the test is re-checked on the
    exact solution (tag exact_fallback, with the passing test's tag in
    ``fallback_case``).  Returns (bundle, MINRES steps taken), the bundle None
    when the exact solution fails the test or cannot be formed: the dense
    solve raises LinAlgError when the saddle matrix is singular, whatever J's rank.
    """
    J_bar = lin.J
    m, n = J_bar.shape
    v = normal.v
    b = np.concatenate((lin.g + H.dot(v), np.zeros(m)))
    apply_K = kkt_matrix(H, J_bar).dot

    def passed_test(z, resid):
        """The branch's test at z: its outcome tuple, or None on failure."""
        u, rho, r = z[:n], resid[:n], resid[n:]
        if feasible:
            return check_tt1(H, lin, normal, u, rho, r, tau_prev, eps_o)
        return check_tt2(H, lin, normal, u, rho, r, tau_prev)

    minus_b = -b
    state = passed = None
    z = np.zeros(n + m)
    iters = 0
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
                passed = passed_test(z, resid)
                if passed is not None:
                    break
        if state is not None and state.breakdown:
            break
        z, state = minres_iterate(apply_K, minus_b, state)
        iters += 1

    fallback = passed is None
    if fallback:
        # dense fallback; residuals vanish up to round-off
        try:
            z = np.concatenate(dense_kkt_solve(H, J_bar, b[:n]))
        except np.linalg.LinAlgError:  # K singular
            return None, iters
        resid = apply_K(z) + b
        passed = passed_test(z, resid)
        if passed is None:
            return None, iters
    tag, gd, cd_norm, trial = passed
    return StepBundle(v=v, z=z, resid=resid, test=EXACT_FALLBACK if fallback else tag,
                      minres_iters=iters, cg_iters=normal.cg_iters, gd=gd, cd_norm=cd_norm,
                      fallback_case=tag if fallback else None, tau_trial=trial), iters

"""The two step-size controllers: adaptive (Option I) and relaxed line search (Option II).

Each controller is built once per run and has one ``step`` method with the
same signature: given the iterate, its noisy sample, the step bundle and its
d = v + u, the merit parameter tau, the model reduction and d'd, it returns
(alpha, next iterate, the record's controller fields, terminal status or
None).  The adaptive controller is objective-function-free but needs
Lipschitz estimates, formed once when it is built; it tracks three
sequences (chi nondecreasing, zeta and xi nonincreasing) that separate
tangentially from normally dominated steps and projects a sufficient-decrease
step size onto a safeguard interval.  The line search accepts the first
backtracked step passing an Armijo condition relaxed by a noise-dependent
slack; it ends the run when no trial passes or a trial's merit value is not
finite.  Both controllers take a finite nonzero direction: the driver stops
on any other first.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import all_finite, norm2
from .merit import TAU0, merit_value

LINE_SEARCH_FAILURE = "line_search_failure"
NONFINITE = "nonfinite_evaluation"

# The benchmark preset's constants, each in the range noted.  Option I (adaptive):
BETA = 1.0  # (0, 1]
ETA = 0.5  # (0, 1)
THETA = 1e4  # (0, inf)
CHI0 = 1e-3  # (0, inf)
ZETA0 = 1e3  # (0, inf)
XI0 = 1.0  # (0, inf)
SIGMA_CHI = 0.1  # (0, inf)
SIGMA_ZETA = 0.1  # (0, 1)
SIGMA_XI = 0.1  # (0, 1)
LIPSCHITZ_DIRS = 10  # integer >= 0
LIPSCHITZ_DELTA = 1e-2  # (0, inf)
LIPSCHITZ_FLOOR = 1e-4  # (0, inf), so L_est, Gamma_est > 0
# Option II (line search): first trial, backtracking factor, Armijo fraction
ALPHA_U = 1.0  # (0, 1]
NU = 0.5  # (0, 1)
LS_ETA = 1e-3  # (0, 1)
MAX_BACKTRACKS = 60  # integer >= 0


class AdaptiveState:
    """Option I controller for one run: chi, zeta, xi and the Lipschitz
    estimates L_est, Gamma_est, held constant after start-up."""

    def __init__(self, oracle, x0, H):
        self.H = H
        self.chi, self.zeta, self.xi = CHI0, ZETA0, XI0
        self.L_est, self.Gamma_est = clamp_beta_admissible(*estimate_lipschitz(oracle, x0))

    def tangential(self, uu: float, vv: float) -> bool:
        """Tangential dominance u'u >= chi v'v at the current chi."""
        return uu >= self.chi * vv

    def step(self, x, noisy, bundle, d, tau: float, delta_l: float, dd: float):
        """Update chi, zeta and xi, then take the projected step size."""
        u, v = bundle.u, bundle.v
        uu, vv = float(u.dot(u)), float(v.dot(v))
        update_chi_zeta(self, uu, vv, float(d.dot(self.H.dot(d))))
        xi_update(self, delta_l, tau, uu, vv, dd)
        alpha, a_suff, a_min, a_max = adaptive_alpha(self, delta_l, tau, uu, vv, dd)
        fields = dict(chi=self.chi, zeta=self.zeta, xi=self.xi,
                      alpha_suff=a_suff, alpha_min=a_min, alpha_max=a_max)
        return alpha, x + alpha * d, fields, None


class LineSearch:
    """Option II controller: the relaxed Armijo backtracking search."""

    def __init__(self, oracle, noise):
        self.oracle, self.noise = oracle, noise

    def step(self, x, noisy, bundle, d, tau: float, delta_l: float, dd: float):
        """Search from alpha_u; alpha = 0 with a status when the search fails."""
        noise = self.noise
        phi0 = merit_value(tau, noisy.f_bar, noisy.c_bar)
        relax = epsilon_Ak(tau, noise.eps_f, noise.eps_c, noise.eps_g, noise.eps_J,
                           math.sqrt(dd))
        alpha, x_next, phi_accept, backtracks, status = line_search_alpha(
            self.oracle, x, d, tau, phi0, delta_l, relax)
        fields = dict(phi0=phi0, phi_accept=phi_accept, relax=relax, backtracks=backtracks)
        return alpha, x_next, fields, status


def estimate_lipschitz(oracle, x0):
    """Finite-difference Lipschitz estimates near the start point.

    L from the largest noisy-gradient difference quotient over LIPSCHITZ_DIRS
    random unit directions at distance LIPSCHITZ_DELTA, Gamma analogously from
    the Jacobian's spectral difference; LIPSCHITZ_FLOOR bounds both below.
    A difference that is not finite returns (inf, inf) at once; a finite one
    whose quotient overflows gives an infinite estimate.  Either way the run
    ends nonfinite_evaluation before its first record.
    """
    delta = LIPSCHITZ_DELTA
    base = oracle.sample(x0, want="derivative")
    L = 0.0
    Gamma = 0.0
    for _ in range(LIPSCHITZ_DIRS):
        u = oracle.rng.standard_normal(x0.size)
        u /= max(norm2(u), 1e-300)
        probe = oracle.sample(x0 + delta * u, want="derivative")
        dg, dJ = probe.g_bar - base.g_bar, probe.J_bar - base.J_bar
        if not (all_finite(dg) and all_finite(dJ)):
            return math.inf, math.inf
        L = max(L, norm2(dg) / delta)
        Gamma = max(Gamma, float(np.linalg.norm(dJ, 2)) / delta)
    return max(L, LIPSCHITZ_FLOOR), max(Gamma, LIPSCHITZ_FLOOR)


def clamp_beta_admissible(L: float, Gamma: float):
    """Scale (L, Gamma) up until 2(1-eta) beta xi0 max{tau0,1} / (tau0 L + Gamma) <= 1."""
    need = 2.0 * (1.0 - ETA) * BETA * XI0 * max(TAU0, 1.0)
    have = TAU0 * L + Gamma
    if have < need:
        scale = need / have
        L *= scale
        Gamma *= scale
    return L, Gamma


def update_chi_zeta(state: AdaptiveState, uu: float, vv: float, dHd: float) -> None:
    """Grow chi / shrink zeta when the step is tangentially dominated with low curvature.

    ``uu``, ``vv`` and ``dHd`` are u'u, v'v and d'Hd of the step d = v + u.
    """
    if state.tangential(uu, vv) and 0.5 * dHd < 0.25 * state.zeta * uu:
        state.chi = (1.0 + SIGMA_CHI) * state.chi
        state.zeta = (1.0 - SIGMA_ZETA) * state.zeta


def xi_update(state: AdaptiveState, delta_l: float, tau: float, uu: float,
              vv: float, dd: float) -> None:
    """Lower xi toward the observed ratio of model reduction to d'd (``dd`` > 0)."""
    trial = delta_l / (tau * dd) if state.tangential(uu, vv) else delta_l / dd
    if state.xi > trial:
        state.xi = min((1.0 - SIGMA_XI) * state.xi, trial)


def adaptive_alpha(state: AdaptiveState, delta_l: float, tau: float, uu: float,
                   vv: float, dd: float):
    """Project the sufficient-decrease step size onto the safeguard interval.

    Returns (alpha, alpha_suff, alpha_min, alpha_max).  After `xi_update`,
    alpha_min is at most the unclipped alpha_suff, so alpha <= alpha_suff <= 1;
    an interval above 1 is capped at 1, and such a step has alpha < alpha_min.
    """
    denom = tau * state.L_est + state.Gamma_est
    two1meta = 2.0 * (1.0 - ETA) * BETA
    alpha_suff = min(two1meta * delta_l / (denom * dd), 1.0)
    alpha_min = two1meta * state.xi * (tau if state.tangential(uu, vv) else 1.0) / denom
    alpha_max = alpha_min + THETA * BETA
    alpha = min(max(alpha_suff, alpha_min), alpha_max, 1.0)
    return alpha, alpha_suff, alpha_min, alpha_max


def epsilon_Ak(tau: float, eps_f: float, eps_c: float, eps_g: float, eps_J: float,
               d_norm: float) -> float:
    """Armijo relaxation:  2 tau eps_f + 4 eps_c + tau a_u eps_g ||d|| + a_u eps_J ||d||."""
    return (2.0 * tau * eps_f + 4.0 * eps_c
            + tau * ALPHA_U * eps_g * d_norm + ALPHA_U * eps_J * d_norm)


def line_search_alpha(oracle, x, d, tau: float, phi0: float, delta_l: float, relax: float):
    """Backtrack from ALPHA_U by factors NU until the relaxed Armijo condition holds.

    Each trial samples the noisy merit value at x + alpha d once.  Returns
    (alpha, trial point, its merit value, backtracks, None) on acceptance;
    (0, x, None, backtracks, status) at the first NaN or Inf merit value
    (``NONFINITE``), or after MAX_BACKTRACKS or once phi0 - LS_ETA alpha delta_l
    rounds to phi0 and so no longer falls with alpha (``LINE_SEARCH_FAILURE``).
    """
    alpha = ALPHA_U
    for backtracks in range(MAX_BACKTRACKS + 1):
        if (bound := phi0 - LS_ETA * alpha * delta_l) == phi0:
            break  # no trial is left that must lower the merit
        point = x + alpha * d
        trial = oracle.sample(point, want="value")
        phi_trial = merit_value(tau, trial.f_bar, trial.c_bar)
        if not math.isfinite(phi_trial):
            return 0.0, x, None, backtracks, NONFINITE
        if phi_trial <= bound + relax:
            return alpha, point, phi_trial, backtracks, None
        alpha *= NU
    return 0.0, x, None, backtracks, LINE_SEARCH_FAILURE

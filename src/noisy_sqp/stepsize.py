"""The two step-size controllers: adaptive (Option I) and relaxed line search (Option II).

Each controller is built once per run and has one ``step`` method with the
same signature: given the iterate, its noisy sample, the step bundle, the
merit parameter tau, the model reduction and d'd, it returns
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
from dataclasses import dataclass

import numpy as np

from .linalg import check_settings, norm2, number
from .merit import merit_value

LINE_SEARCH_FAILURE = "line_search_failure"
NONFINITE = "nonfinite_evaluation"


@dataclass(frozen=True)
class AdaptiveSeeds:
    """Initial values and meta-parameters for the Option I controller."""

    beta: float = number(1.0, "(0, 1]")
    eta: float = number(0.5, "(0, 1)")
    theta: float = number(1e4, "(0, inf)")
    chi0: float = number(1e-3, "(0, inf)")
    zeta0: float = number(1e3, "(0, inf)")
    xi0: float = number(1.0, "(0, inf)")
    sigma_chi: float = number(0.1, "(0, inf)")
    sigma_zeta: float = number(0.1, "(0, 1)")
    sigma_xi: float = number(0.1, "(0, 1)")
    lipschitz_dirs: int = number(10, "[0, inf)", integer=True)
    lipschitz_delta: float = number(1e-2, "(0, inf)")
    lipschitz_floor: float = number(1e-4, "(0, inf)")  # > 0 keeps L_est, Gamma_est > 0

    __post_init__ = check_settings


@dataclass(frozen=True)
class LineSearchParams:
    alpha_u: float = number(1.0, "(0, 1]")
    nu: float = number(0.5, "(0, 1)")
    eta: float = number(1e-3, "(0, 1)")
    max_backtracks: int = number(60, "[0, inf)", integer=True)

    __post_init__ = check_settings


class AdaptiveState:
    """Option I controller for one run: its seeds, chi, zeta, xi and the
    Lipschitz estimates L_est, Gamma_est, held constant after start-up."""

    def __init__(self, seeds: AdaptiveSeeds, oracle, x0, tau0: float, H):
        self.seeds, self.H = seeds, H
        self.chi, self.zeta, self.xi = seeds.chi0, seeds.zeta0, seeds.xi0
        L, Gamma = estimate_lipschitz(oracle, x0, seeds)
        self.L_est, self.Gamma_est = clamp_beta_admissible(
            L, Gamma, seeds.beta, seeds.eta, seeds.xi0, tau0)

    def tangential(self, uu: float, vv: float) -> bool:
        """Tangential dominance u'u >= chi v'v at the current chi."""
        return uu >= self.chi * vv

    def step(self, x, noisy, bundle, tau: float, delta_l: float, dd: float):
        """Update chi, zeta and xi, then take the projected step size."""
        u, v, d = bundle.u, bundle.v, bundle.d
        uu, vv = float(u.dot(u)), float(v.dot(v))
        update_chi_zeta(self, uu, vv, float(d.dot(self.H.dot(d))))
        xi_update(self, delta_l, tau, uu, vv, dd)
        alpha, a_suff, a_min, a_max = adaptive_alpha(self, delta_l, tau, uu, vv, dd)
        fields = dict(chi=self.chi, zeta=self.zeta, xi=self.xi,
                      alpha_suff=a_suff, alpha_min=a_min, alpha_max=a_max)
        return alpha, x + alpha * d, fields, None


class LineSearch:
    """Option II controller: the relaxed Armijo backtracking search."""

    def __init__(self, oracle, noise, params: LineSearchParams):
        self.oracle, self.noise, self.params = oracle, noise, params

    def step(self, x, noisy, bundle, tau: float, delta_l: float, dd: float):
        """Search from alpha_u; alpha = 0 with a status when the search fails."""
        noise, params = self.noise, self.params
        phi0 = merit_value(tau, noisy.f_bar, noisy.c_bar)
        relax = epsilon_Ak(tau, noise.eps_f, noise.eps_c, noise.eps_g, noise.eps_J,
                           params.alpha_u, math.sqrt(dd))
        alpha, x_next, phi_accept, backtracks, status = line_search_alpha(
            self.oracle, x, bundle.d, tau, phi0, delta_l, relax, params)
        fields = dict(phi0=phi0, phi_accept=phi_accept, relax=relax, backtracks=backtracks)
        return alpha, x_next, fields, status


def estimate_lipschitz(oracle, x0, seeds: AdaptiveSeeds):
    """Finite-difference Lipschitz estimates near the start point.

    L from the largest noisy-gradient difference quotient over random unit
    directions, Gamma analogously from the Jacobian's spectral difference.
    ``seeds`` gives the directions, the distance and the floor of both.
    """
    delta = seeds.lipschitz_delta
    base = oracle.sample(x0, want="derivative")
    L = 0.0
    Gamma = 0.0
    for _ in range(seeds.lipschitz_dirs):
        u = oracle.rng.standard_normal(x0.size)
        u /= max(norm2(u), 1e-300)
        probe = oracle.sample(x0 + delta * u, want="derivative")
        L = max(L, norm2(probe.g_bar - base.g_bar) / delta)
        Gamma = max(Gamma, float(np.linalg.norm(probe.J_bar - base.J_bar, 2)) / delta)
    return max(L, seeds.lipschitz_floor), max(Gamma, seeds.lipschitz_floor)


def clamp_beta_admissible(L: float, Gamma: float, beta: float, eta: float,
                          xi0: float, tau0: float):
    """Scale (L, Gamma) up until 2(1-eta) beta xi0 max{tau0,1} / (tau0 L + Gamma) <= 1."""
    need = 2.0 * (1.0 - eta) * beta * xi0 * max(tau0, 1.0)
    have = tau0 * L + Gamma
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
        state.chi = (1.0 + state.seeds.sigma_chi) * state.chi
        state.zeta = (1.0 - state.seeds.sigma_zeta) * state.zeta


def xi_update(state: AdaptiveState, delta_l: float, tau: float, uu: float,
              vv: float, dd: float) -> None:
    """Lower xi toward the observed ratio of model reduction to d'd (``dd`` > 0)."""
    trial = delta_l / (tau * dd) if state.tangential(uu, vv) else delta_l / dd
    if state.xi > trial:
        state.xi = min((1.0 - state.seeds.sigma_xi) * state.xi, trial)


def adaptive_alpha(state: AdaptiveState, delta_l: float, tau: float, uu: float,
                   vv: float, dd: float):
    """Project the sufficient-decrease step size onto the safeguard interval.

    Returns (alpha, alpha_suff, alpha_min, alpha_max).  After `xi_update`,
    alpha_min is at most the unclipped alpha_suff, so alpha <= alpha_suff <= 1;
    an interval above 1 is capped at 1, and such a step has alpha < alpha_min.
    """
    denom = tau * state.L_est + state.Gamma_est
    two1meta = 2.0 * (1.0 - state.seeds.eta) * state.seeds.beta
    alpha_suff = min(two1meta * delta_l / (denom * dd), 1.0)
    alpha_min = two1meta * state.xi * (tau if state.tangential(uu, vv) else 1.0) / denom
    alpha_max = alpha_min + state.seeds.theta * state.seeds.beta
    alpha = min(max(alpha_suff, alpha_min), alpha_max, 1.0)
    return alpha, alpha_suff, alpha_min, alpha_max


def epsilon_Ak(tau: float, eps_f: float, eps_c: float, eps_g: float,
               eps_J: float, alpha_u: float, d_norm: float) -> float:
    """Armijo relaxation:  2 tau eps_f + 4 eps_c + tau a_u eps_g ||d|| + a_u eps_J ||d||."""
    return (2.0 * tau * eps_f + 4.0 * eps_c
            + tau * alpha_u * eps_g * d_norm + alpha_u * eps_J * d_norm)


def line_search_alpha(oracle, x, d, tau: float, phi0: float, delta_l: float,
                      relax: float, params: LineSearchParams):
    """Backtrack from alpha_u until the relaxed Armijo condition holds.

    Each trial samples the noisy merit value at x + alpha d once.  Returns
    (alpha, trial point, its merit value, backtracks, None) on acceptance;
    (0, x, None, backtracks, status) at the first NaN or Inf merit value
    (``NONFINITE``) or after max_backtracks (``LINE_SEARCH_FAILURE``).
    """
    alpha = params.alpha_u
    for backtracks in range(params.max_backtracks + 1):
        point = x + alpha * d
        trial = oracle.sample(point, want="value")
        phi_trial = merit_value(tau, trial.f_bar, trial.c_bar)
        if not math.isfinite(phi_trial):
            return 0.0, x, None, backtracks, NONFINITE
        if phi_trial <= phi0 - params.eta * alpha * delta_l + relax:
            return alpha, point, phi_trial, backtracks, None
        alpha *= params.nu
    return 0.0, x, None, params.max_backtracks, LINE_SEARCH_FAILURE

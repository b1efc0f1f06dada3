"""The two step-size controllers: adaptive (Option I) and relaxed line search (Option II).

The adaptive controller is objective-function-free but needs Lipschitz
estimates; it tracks three sequences (chi nondecreasing, zeta and xi
nonincreasing) that separate tangentially from normally dominated steps and
projects a sufficient-decrease step size onto a safeguard interval.  The
line search accepts the first backtracked step passing an Armijo condition
relaxed by a noise-dependent slack.  Both controllers take a nonzero
direction: the driver stops on a numerically zero one, or one whose d'd
underflows to 0, first.  The adaptive controller reads the step's products
u'u, v'v, d'd and d'Hd, which the driver forms once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import norm2


class BacktrackExhausted(Exception):
    """No trial step satisfied the relaxed Armijo condition."""


@dataclass
class LineSearchParams:
    alpha_u: float = 1.0
    nu: float = 0.5
    eta: float = 1e-3
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.alpha_u <= 1.0:
            raise ValueError("alpha_u must be in (0,1]")
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must be in (0,1)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0,1)")


@dataclass
class AdaptiveState:
    """Controller state for Option I; one instance per run."""

    chi: float = 1e-3
    zeta: float = 1e3
    xi: float = 1.0
    beta: float = 1.0
    eta: float = 0.5
    theta: float = 1e4
    L_est: float = 1.0
    Gamma_est: float = 1.0
    sigma_chi: float = 0.1
    sigma_zeta: float = 0.1
    sigma_xi: float = 0.1

    def __post_init__(self):
        if min(self.chi, self.zeta, self.xi, self.theta, self.L_est, self.Gamma_est) <= 0:
            raise ValueError("chi, zeta, xi, theta, L, Gamma must be > 0")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0,1]")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0,1)")

    def tangential(self, uu: float, vv: float) -> bool:
        """Tangential dominance u'u >= chi v'v at the current chi."""
        return uu >= self.chi * vv


def estimate_lipschitz(oracle, x0, n_dirs: int = 10, delta: float = 1e-2,
                       floor: float = 1e-4):
    """Finite-difference Lipschitz estimates near the start point.

    L from the largest noisy-gradient difference quotient over random unit
    directions, Gamma analogously from the Jacobian's spectral difference.
    Held constant by the caller for the rest of the run.
    """
    base = oracle.sample(x0, want="derivative")
    L = 0.0
    Gamma = 0.0
    for _ in range(n_dirs):
        u = oracle.rng.standard_normal(x0.size)
        u /= max(norm2(u), 1e-300)
        probe = oracle.sample(x0 + delta * u, want="derivative")
        L = max(L, norm2(probe.g_bar - base.g_bar) / delta)
        Gamma = max(Gamma, float(np.linalg.norm(probe.J_bar - base.J_bar, 2)) / delta)
    return max(L, floor), max(Gamma, floor)


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


def update_chi_zeta(state: AdaptiveState, uu: float, vv: float, dHd: float) -> AdaptiveState:
    """Grow chi / shrink zeta when the step is tangentially dominated with low curvature.

    ``uu``, ``vv`` and ``dHd`` are u'u, v'v and d'Hd of the step d = v + u.
    """
    if state.tangential(uu, vv) and 0.5 * dHd < 0.25 * state.zeta * uu:
        state.chi = (1.0 + state.sigma_chi) * state.chi
        state.zeta = (1.0 - state.sigma_zeta) * state.zeta
    return state


def xi_update(state: AdaptiveState, delta_l: float, tau: float, uu: float,
              vv: float, dd: float) -> AdaptiveState:
    """Lower xi toward the observed ratio of model reduction to d'd (``dd`` > 0)."""
    trial = delta_l / (tau * dd) if state.tangential(uu, vv) else delta_l / dd
    if state.xi > trial:
        state.xi = min((1.0 - state.sigma_xi) * state.xi, trial)
    return state


def adaptive_alpha(state: AdaptiveState, delta_l: float, tau: float, uu: float,
                   vv: float, dd: float):
    """Project the sufficient-decrease step size onto the safeguard interval.

    Returns (alpha, alpha_suff, alpha_min, alpha_max); the projection never
    increases the step size beyond alpha_suff <= 1.
    """
    denom = tau * state.L_est + state.Gamma_est
    two1meta = 2.0 * (1.0 - state.eta) * state.beta
    alpha_suff = min(two1meta * delta_l / (denom * dd), 1.0)
    alpha_min = two1meta * state.xi * (tau if state.tangential(uu, vv) else 1.0) / denom
    alpha_max = alpha_min + state.theta * state.beta
    alpha = min(max(alpha_suff, alpha_min), alpha_max)
    return alpha, alpha_suff, alpha_min, alpha_max


def epsilon_Ak(tau: float, eps_f: float, eps_c: float, eps_g: float,
               eps_J: float, alpha_u: float, d_norm: float) -> float:
    """Armijo relaxation:  2 tau eps_f + 4 eps_c + tau a_u eps_g ||d|| + a_u eps_J ||d||."""
    return (2.0 * tau * eps_f + 4.0 * eps_c
            + tau * alpha_u * eps_g * d_norm + alpha_u * eps_J * d_norm)


def line_search_alpha(merit_eval, phi0: float, delta_l: float, relax: float,
                      params: LineSearchParams):
    """Backtrack from alpha_u until the relaxed Armijo condition holds.

    ``merit_eval(alpha)`` must return the noisy merit value at the trial
    point (one fresh function evaluation per trial).  Returns the accepted
    (alpha, backtracks); raises BacktrackExhausted after max_backtracks.
    """
    alpha = params.alpha_u
    for backtracks in range(params.max_backtracks + 1):
        phi_trial = merit_eval(alpha)
        if phi_trial <= phi0 - params.eta * alpha * delta_l + relax:
            return alpha, backtracks
        alpha *= params.nu
    raise BacktrackExhausted(f"no acceptable step after {params.max_backtracks} backtracks")

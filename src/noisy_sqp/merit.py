"""Noisy linearization, merit function, model reduction and merit-parameter updates.

Every step of an iteration is built from one noisy linearization (g, c, J);
`Linearization` holds it with the products the steps and tests read, each
formed once, and forms g'd and ||c + Jd|| along a step d.  The merit function
is the exact l2 penalty phi(x, tau) = tau f + ||c||_2, and progress is
measured by the reduction of its first-order model along a step, formed from
those scalars.  The merit parameter tau is a plain float that only ever
decreases: `tau_update` keeps it or cuts it below the trial value that the
accepting TT2_cond1 check forms with `tau_trial`.
"""

from __future__ import annotations

import math

from .linalg import norm2, norm_inf


class Linearization:
    """Noisy gradient g, constraints c and Jacobian J at one iterate (float
    arrays) with J'c, ||J'c||^2, ||J'c||, max|J'c|, ||c|| and ||g||."""

    __slots__ = ("g", "c", "J", "Jtc", "Jtc_sq", "Jtc_norm", "Jtc_inf", "c_norm", "g_norm")

    def __init__(self, g, c, J):
        self.g, self.c, self.J = g, c, J
        Jtc = self.Jtc = J.T.dot(c)
        self.Jtc_sq = float(Jtc.dot(Jtc))
        self.Jtc_norm = math.sqrt(self.Jtc_sq)  # norm2's formula on the same dot
        self.Jtc_inf = norm_inf(Jtc)
        self.c_norm = norm2(c)
        self.g_norm = norm2(g)

    def along(self, d):
        """(g'd, ||c + Jd||) for a step d."""
        return float(self.g.dot(d)), norm2(self.c + self.J.dot(d))


def merit_value(tau: float, f: float, c) -> float:
    """phi(x, tau) = tau * f + ||c||_2."""
    return tau * f + norm2(c)


def model_reduction(tau: float, c_norm: float, gd: float, cd_norm: float) -> float:
    """Reduction of the merit model along d:  -tau g'd + ||c|| - ||c + Jd||."""
    return -tau * gd + c_norm - cd_norm


def tau_trial(gd: float, uHu: float, uu: float, c_norm: float, c_vr_norm: float,
              params) -> float:
    """Trial merit parameter on the residual branch of Termination Test 2.

    Returns +inf when the denominator  g'd + max{u'Hu, lambda_u ||u||^2}
    is <= 0 (the step is already aligned with descent).
    """
    denom = gd + max(uHu, params.lambda_u * uu)
    if denom <= 0.0:
        return math.inf
    decrease = c_norm - c_vr_norm
    return (1.0 - params.sigma_c / params.sigma_r) * decrease / denom


def tau_update(tau: float, trial: float, sigma_tau: float) -> float:
    """Keep tau when already below (1 - sigma_tau) * trial, else cut it there."""
    if trial < 0:
        raise ValueError("trial must be >= 0 or +inf")
    cut = (1.0 - sigma_tau) * trial
    return tau if tau <= cut else cut

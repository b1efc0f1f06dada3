"""Noisy linearization, merit function, model reduction and merit-parameter updates.

Every step of an iteration is built from one noisy linearization (g, c, J);
`Linearization` holds it with the products and the round-off scale that the
steps and tests read, each formed once, and forms g'd and ||c + Jd||.  The
merit function is the exact l2 penalty phi(x, tau) = tau f + ||c||_2, and
progress is measured by the reduction of its first-order model along a
step, formed from those scalars.  The merit parameter tau is a plain float
that only ever decreases: `tau_update` keeps it or cuts it below the trial
value that the accepting TT2_cond1 check forms with `tau_trial`.
"""

from __future__ import annotations

import math

from .linalg import norm2, norm_inf

# The benchmark preset's constants, each in the range noted: the termination tests' and
# the normal step's, which `steps` reads (`tau_trial` too), then the merit parameter's.
LAMBDA_RHO_R = 0.5  # (0, 1); TT residual gate lambda_rho_r min{max{||u||, ||J'c||}, kappa_rho_r}
KAPPA_RHO_R = 1e2  # (0, inf)
LAMBDA_U = 5e-9  # (0, inf); the paper's (0, zeta_H) needs H and J
LAMBDA_UV = 1e4  # (0, inf)
LAMBDA_V = 1e4  # (0, inf)
SIGMA_U = 0.99  # (0, 1)
SIGMA_C = 0.1  # (0, SIGMA_R)
SIGMA_R = 0.9999  # (SIGMA_C, 1)
GAMMA_C = 0.9  # (0, 1]; the Cauchy decrease share the normal step keeps; only `verify` reads it
SIGMA_JC = 1e2  # (0, inf); normal trust-region radius sigma_Jc ||J'c|| and Cauchy step cap
TAU0 = 1.0  # (0, inf)
SIGMA_TAU = 1e-2  # (0, 1)


class Linearization:
    """Noisy gradient g, constraints c and Jacobian J at one iterate (float
    arrays) with J'c, ||J'c||, max|J'c|, ||c||, ||g|| and
    ``round_off`` = 1e-13 max(1, ||g||, ||c||), the one scale of what counts as zero."""

    __slots__ = ("g", "c", "J", "Jtc", "Jtc_norm", "Jtc_inf", "c_norm", "g_norm", "round_off")

    def __init__(self, g, c, J):
        self.g, self.c, self.J = g, c, J
        Jtc = self.Jtc = J.T.dot(c)
        self.Jtc_norm = norm2(Jtc)
        self.Jtc_inf = norm_inf(Jtc)
        self.c_norm = norm2(c)
        self.g_norm = norm2(g)
        self.round_off = 1e-13 * max(1.0, self.g_norm, self.c_norm)

    def along(self, d):
        """(g'd, ||c + Jd||) for a step d."""
        return float(self.g.dot(d)), norm2(self.c + self.J.dot(d))


def merit_value(tau: float, f: float, c) -> float:
    """phi(x, tau) = tau * f + ||c||_2."""
    return tau * f + norm2(c)


def model_reduction(tau: float, c_norm: float, gd: float, cd_norm: float) -> float:
    """Reduction of the merit model along d:  -tau g'd + ||c|| - ||c + Jd||."""
    return -tau * gd + c_norm - cd_norm


def tau_trial(gd: float, uHu: float, uu: float, c_norm: float, c_vr_norm: float) -> float:
    """Trial merit parameter on the residual branch of Termination Test 2.

    Returns +inf when the denominator  g'd + max{u'Hu, lambda_u ||u||^2}
    is <= 0 (the step is already aligned with descent).
    """
    denom = gd + max(uHu, LAMBDA_U * uu)
    if denom <= 0.0:
        return math.inf
    decrease = c_norm - c_vr_norm
    return (1.0 - SIGMA_C / SIGMA_R) * decrease / denom


def tau_update(tau: float, trial: float) -> float:
    """Keep tau when already below (1 - SIGMA_TAU) * trial, else cut it there (trial > 0)."""
    cut = (1.0 - SIGMA_TAU) * trial
    return tau if tau <= cut else cut

"""Dense vector/matrix kernels, the two Krylov solvers, and dense verification oracles.

Everything here is plain numpy on small dense arrays.  The two iterative
solvers (a MINRES-style symmetric solver and a Steihaug-Toint trust-region
CG) expose their iterates one step at a time so callers can run acceptance
tests on intermediate candidates.  The dense routines at the bottom
(`least_squares_multiplier`, `smallest_singular_value`, `dense_kkt_solve`)
are total: rank deficiency is handled with a fixed relative ridge instead
of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Return a 1-D float64 copy of ``x``; reject NaN/Inf entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v.copy()


def norm2(x) -> float:
    x = np.asarray(x)
    if x.ndim == 1:
        return float(np.sqrt(x @ x))
    return float(np.linalg.norm(x))


def norm_inf(x) -> float:
    x = np.asarray(x)
    return float(np.abs(x).max()) if x.size else 0.0


@dataclass
class SymSolveReport:
    """Result of driving the symmetric solver to a residual target."""

    solution: np.ndarray
    residual_inf_norm: float
    iterations: int


class MinresState:
    """Recurrence bookkeeping for one symmetric solve (plain MINRES).

    Classic Lanczos plus Givens-rotation QR of the growing tridiagonal;
    each `minres_iterate` call costs one operator application and O(dim)
    vector work, and the minimum-residual candidate is maintained
    incrementally.
    """

    def __init__(self, b: np.ndarray):
        self.n = b.size
        self.beta1 = norm2(b)
        self.breakdown = self.beta1 == 0.0
        self.iterations = 0
        self.x = np.zeros(self.n)
        if not self.breakdown:
            self.r1 = b.copy()
            self.r2 = b.copy()
            self.beta = self.beta1
            self.oldb = 0.0
            self.dbar = 0.0
            self.epsln = 0.0
            self.phibar = self.beta1
            self.cs = -1.0
            self.sn = 0.0
            self.w = np.zeros(self.n)
            self.w2 = np.zeros(self.n)


def minres_iterate(apply_A, b: np.ndarray, state: MinresState | None = None):
    """Advance the symmetric solver by one Lanczos step.

    Returns ``(candidate, state)``.  ``state=None`` starts a new solve with
    the zero vector as iterate 0; a breakdown (zero Lanczos vector) means
    b = 0 or the Krylov space is exhausted, i.e. the candidate is already
    exact up to round-off.  Breakdown is reported on the state, not raised.
    """
    if state is None:
        state = MinresState(np.asarray(b, dtype=float))
    if state.breakdown:
        return state.x.copy(), state

    v = state.r2 / state.beta
    y = np.asarray(apply_A(v), dtype=float)
    if state.iterations >= 1:
        y = y - (state.beta / state.oldb) * state.r1
    alfa = float(v @ y)
    y = y - (alfa / state.beta) * state.r2
    state.r1 = state.r2
    state.r2 = y
    state.oldb = state.beta
    state.beta = norm2(y)

    oldeps = state.epsln
    delta = state.cs * state.dbar + state.sn * alfa
    gbar = state.sn * state.dbar - state.cs * alfa
    state.epsln = state.sn * state.beta
    state.dbar = -state.cs * state.beta
    gamma = max(np.hypot(gbar, state.beta), 1e-300)
    state.cs = gbar / gamma
    state.sn = state.beta / gamma
    phi = state.cs * state.phibar
    state.phibar = state.sn * state.phibar

    w1 = state.w2
    state.w2 = state.w
    state.w = (v - oldeps * w1 - delta * state.w2) / gamma
    state.x = state.x + phi * state.w
    state.iterations += 1
    if state.beta <= 1e-14 * max(1.0, state.beta1) or state.iterations >= 2 * state.n:
        state.breakdown = True
    return state.x.copy(), state


def minres_solve(apply_A, b: np.ndarray, tol: float = 1e-10,
                 max_iters: int | None = None) -> SymSolveReport:
    """Run `minres_iterate` until the true residual drops below ``tol``."""
    b = np.asarray(b, dtype=float)
    if max_iters is None:
        max_iters = 3 * b.size + 10
    x = np.zeros_like(b)
    state = None
    while True:
        x, state = minres_iterate(apply_A, b, state)
        res = norm_inf(np.asarray(apply_A(x)) - b)
        if res <= tol or state.breakdown or state.iterations >= max_iters:
            return SymSolveReport(x, res, state.iterations)


def cg_steihaug(apply_H, g: np.ndarray, radius: float, stop=None):
    """Steihaug-Toint CG for  min g'v + 1/2 v'Hv  s.t. ||v|| <= radius.

    ``stop`` receives the current residual vector and may end the iteration
    early.  Negative curvature (round-off only for H = J'J) is followed to
    the boundary as in the standard method.

    Returns ``(v, hit_boundary, iterations)``.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    z = np.zeros(n)
    r = g.copy()
    d = -r
    rr = float(r @ r)
    if rr == 0.0:
        return z, False, 0
    max_iters = 2 * n + 10
    for it in range(1, max_iters + 1):
        Hd = np.asarray(apply_H(d), dtype=float)
        dHd = float(d @ Hd)
        if dHd <= 0.0:
            tau = _boundary_step(z, d, radius)
            return z + tau * d, True, it
        alpha = rr / dHd
        z_next = z + alpha * d
        if norm2(z_next) >= radius:
            tau = _boundary_step(z, d, radius)
            return z + tau * d, True, it
        z = z_next
        r = r + alpha * Hd
        rr_next = float(r @ r)
        if stop is not None and stop(r):
            return z, False, it
        if rr_next <= 1e-30 * max(1.0, float(g @ g)):
            return z, False, it
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z, False, max_iters


def _boundary_step(z, d, radius):
    # positive root of ||z + tau d||^2 = radius^2
    dd = float(d @ d)
    zd = float(z @ d)
    zz = float(z @ z)
    disc = max(zd * zd - dd * (zz - radius * radius), 0.0)
    return (-zd + np.sqrt(disc)) / dd


def least_squares_multiplier(J: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Multiplier y minimizing ||g + J'y||_2 via regularized normal equations.

    The Gram matrix J J' gets a ridge of 1e-12 * (1 + ||JJ'||_inf) when rank
    deficient, which makes the solve total and returns the minimum-norm
    minimizer of the regularized system.
    """
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    M = J @ J.T
    rhs = -J @ g
    w = np.linalg.eigvalsh(M)
    if w[0] <= 1e-12 * max(1.0, w[-1]):
        M = M + (1e-12 * (1.0 + norm_inf(M))) * np.eye(M.shape[0])
    return np.linalg.solve(M, rhs)


def smallest_singular_value(J: np.ndarray) -> float:
    """Least of the min(m, n) singular values of J; used to audit LICQ status."""
    return float(np.linalg.svd(np.asarray(J, dtype=float), compute_uv=False)[-1])


def dense_kkt_solve(H: np.ndarray, J: np.ndarray, rhs_top: np.ndarray):
    """Exact solve of [[H, J'], [J, 0]] [u; y] = [-rhs_top; 0].

    Verification / fallback oracle.  When J is rank deficient the (2,2)
    block is regularized with -1e-12-scale diagonal, up front or after a
    failed first factorization; the u component stays unique per the
    saddle-system structure.  A failure after the ridge raises LinAlgError.
    """
    H = np.asarray(H, dtype=float)
    J = np.asarray(J, dtype=float)
    rhs_top = np.asarray(rhs_top, dtype=float)
    m, n = J.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = J.T
    K[n:, :n] = J
    rhs = np.concatenate([-rhs_top, np.zeros(m)])

    sigma = smallest_singular_value(J)
    sigma_max = norm2(J) if J.size else 0.0
    rank_deficient = sigma <= 1e-10 * max(1.0, sigma_max)
    if rank_deficient:
        K[n:, n:] -= (1e-12 * (1.0 + norm_inf(J @ J.T))) * np.eye(m)
    try:
        z = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        if rank_deficient:
            raise
        K[n:, n:] -= (1e-12 * (1.0 + norm_inf(J @ J.T))) * np.eye(m)
        z = np.linalg.solve(K, rhs)
    return z[:n], z[n:]

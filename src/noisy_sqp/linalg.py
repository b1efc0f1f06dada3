"""Dense vector/matrix kernels, the two Krylov solvers, and dense verification oracles.

Everything here is plain numpy on small dense arrays.  The two iterative
solvers (a MINRES-style symmetric solver and a Steihaug-Toint trust-region
CG) expose their iterates one step at a time so callers can run acceptance
tests on intermediate candidates.  The dense routines at the bottom
(`least_squares_multiplier`, `smallest_singular_value`, `dense_kkt_solve`)
are total: rank deficiency is handled with a fixed relative ridge instead
of raising.  `check_settings` holds a settings dataclass to the ranges its
fields declare with `number`, `one_of`, `instance_of` or `list_of`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np


def all_finite(a: np.ndarray) -> bool:
    """True when no entry of the float array ``a`` is NaN or Inf.

    A finite sum of the entries proves them all finite.  Formed in Python
    floats, it overflows to inf without a RuntimeWarning; only a sum that is
    not finite needs the elementwise scan.
    """
    return math.isfinite(sum(a.ravel().tolist())) or bool(np.isfinite(a).all())


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Return a 1-D float64 copy of ``x``; reject NaN/Inf entries."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not all_finite(v):
        raise ValueError(f"{name} has non-finite entries")
    return v.copy()


# a setting's declared range: holds(v), and text for "<field> must be <text>"
Rule = namedtuple("Rule", "holds text")


def interval(text: str, integer: bool = False) -> Rule:
    """The rule of a range such as "(0, 1]" or "[1, inf)", each end open or closed:
    a finite int or float (numpy floats included, never a bool; only an int
    when ``integer``) inside it.  Every comparison is written so that NaN fails it."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    lo_closed, hi_closed = text[0] == "[", text[-1] == "]"

    def holds(v) -> bool:  # type(True) is bool, not int
        return ((type(v) is int or (not integer and isinstance(v, (float, np.floating))
                                    and math.isfinite(v)))
                and (lo <= v if lo_closed else lo < v) and (v <= hi if hi_closed else v < hi))

    return Rule(holds, f"{'an integer' if integer else 'a number'} in {text}")


def number(default, text: str, integer: bool = False):
    """A dataclass field holding a finite number (an int when ``integer``) in ``text``."""
    return field(default=default, metadata={"rule": interval(text, integer)})


def one_of(default: str, names):
    """A dataclass field holding one of ``names``."""
    names = tuple(names)
    rule = Rule(lambda v: isinstance(v, str) and v in names, "one of " + ", ".join(names))
    return field(default=default, metadata={"rule": rule})


def instance_of(cls):
    """A dataclass field holding a ``cls``, by default ``cls()``."""
    rule = Rule(lambda v: isinstance(v, cls), f"an instance of {cls.__name__}")
    return field(default_factory=cls, metadata={"rule": rule})


def entries(rule: Rule, length: int = 0, what: str = "entries") -> Rule:
    """The rule of a non-empty list or tuple (``length`` long, if given) of ``rule``s."""
    count = f"a list of {length}" if length else "a non-empty list of"
    return Rule(lambda v: (isinstance(v, (list, tuple)) and len(v) == (length or len(v)) > 0
                           and all(map(rule.holds, v))), f"{count} {what}, each {rule.text}")


def list_of(rule: Rule, length: int = 0, what: str = "entries", **default):
    """A dataclass field holding ``entries(rule, length, what)``."""
    return field(metadata={"rule": entries(rule, length, what)}, **default)


def check_settings(obj):
    """Raise ``ValueError`` for the first field of the dataclass ``obj`` that
    fails its declared rule; return ``obj``."""
    for f in fields(obj):
        rule = f.metadata.get("rule")
        if rule is not None and not rule.holds(getattr(obj, f.name)):
            raise ValueError(f"{f.name} must be {rule.text}")
    return obj


def norm2(x) -> float:
    """Euclidean norm of a vector; Frobenius norm of a matrix (an ndarray)."""
    if x.ndim == 1:
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


def norm_inf(x) -> float:
    """Largest absolute entry of a non-empty array; NaN if any entry is NaN.

    For a matrix this is the max-abs entry, not the induced row-sum norm.
    The entry at ``argmax`` is exactly ``np.maximum.reduce(abs(x), axis=None)``
    at a fraction of that reduction's cost on small arrays.  ``x`` is an ndarray.
    """
    a = abs(x)
    return float(a.item(a.argmax()))


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
        # the recurrence rebinds its vectors and never writes into them, so
        # the start values can share b and one zero vector
        self.x = np.zeros(self.n)
        if not self.breakdown:
            self.r1 = self.r2 = b
            self.beta = self.beta1
            self.oldb = 0.0
            self.dbar = 0.0
            self.epsln = 0.0
            self.phibar = self.beta1
            self.cs = -1.0
            self.sn = 0.0
            self.w = self.w2 = self.x


def minres_iterate(apply_A, b: np.ndarray, state: MinresState | None = None):
    """Advance the symmetric solver by one Lanczos step.

    Returns ``(candidate, state)``.  ``state=None`` starts a new solve with
    the zero vector as iterate 0; a breakdown (zero Lanczos vector) means
    b = 0 or the Krylov space is exhausted, i.e. the candidate is already
    exact up to round-off.  Breakdown is reported on the state, not raised.
    The candidate is the state's iterate: rebound by every step, never
    mutated in place.
    """
    if state is None:
        state = MinresState(b)
    if state.breakdown:
        return state.x, state

    beta = state.beta
    v = state.r2 / beta
    y = apply_A(v)
    if state.iterations >= 1:
        y = y - (beta / state.oldb) * state.r1
    alfa = float(v.dot(y))
    y = y - (alfa / beta) * state.r2
    state.r1, state.r2, state.oldb = state.r2, y, beta
    beta = math.sqrt(y.dot(y))  # norm2(y), without the call

    cs, sn, dbar = state.cs, state.sn, state.dbar
    oldeps = state.epsln
    delta = cs * dbar + sn * alfa
    gbar = sn * dbar - cs * alfa
    state.epsln = sn * beta
    state.dbar = -cs * beta
    # np.hypot, not math.hypot: the two differ in the last bit on some pairs
    gamma = max(float(np.hypot(gbar, beta)), 1e-300)
    cs = gbar / gamma
    sn = beta / gamma
    phi = cs * state.phibar
    state.phibar = sn * state.phibar
    state.beta, state.cs, state.sn = beta, cs, sn

    w = (v - oldeps * state.w2 - delta * state.w) / gamma
    state.w2, state.w = state.w, w
    state.x = state.x + phi * w
    state.iterations += 1
    if beta <= 1e-14 * max(1.0, state.beta1) or state.iterations >= 2 * state.n:
        state.breakdown = True
    return state.x, state


def minres_solve(apply_A, b: np.ndarray, tol: float = 1e-10) -> SymSolveReport:
    """Run `minres_iterate` until the true residual is <= ``tol``, 3 dim + 10 steps at most."""
    state = None
    while True:
        x, state = minres_iterate(apply_A, b, state)
        res = norm_inf(apply_A(x) - b)
        if res <= tol or state.breakdown or state.iterations >= 3 * b.size + 10:
            return SymSolveReport(x, res, state.iterations)


def cg_steihaug(apply_H, g: np.ndarray, radius: float, stop=None):
    """Steihaug-Toint CG for  min g'v + 1/2 v'Hv  s.t. ||v|| <= radius.

    ``stop`` receives the current residual vector and may end the iteration
    early.  Negative curvature (round-off only for H = J'J) is followed to
    the boundary as in the standard method.

    Returns ``(v, hit_boundary, iterations)``.
    """
    n = g.size
    z = np.zeros(n)
    r = g.copy()
    d = -r
    rr = float(r.dot(r))
    if rr == 0.0:
        return z, False, 0
    rr_floor = 1e-30 * max(1.0, float(g.dot(g)))
    max_iters = 2 * n + 10
    for it in range(1, max_iters + 1):
        Hd = apply_H(d)
        dHd = float(d.dot(Hd))
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
        rr_next = float(r.dot(r))
        if stop is not None and stop(r):
            return z, False, it
        if rr_next <= rr_floor:
            return z, False, it
        d = (rr_next / rr) * d - r  # = -r + (...) * d: IEEE a - b is a + (-b)
        rr = rr_next
    return z, False, max_iters


def _boundary_step(z, d, radius):
    # positive root of ||z + tau d||^2 = radius^2
    dd = float(d.dot(d))
    zd = float(z.dot(d))
    zz = float(z.dot(z))
    disc = max(zd * zd - dd * (zz - radius * radius), 0.0)
    return (-zd + np.sqrt(disc)) / dd


def least_squares_multiplier(J: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Multiplier y minimizing ||g + J'y||_2 via regularized normal equations.

    Takes a stack of k Jacobians (k, m, n) with the gradients (k, n) and
    returns the k multipliers as (k, m); each row's multiplier is equal bit
    for bit to that of a stack of one holding that row.  A rank-deficient
    Gram matrix M = JJ' gets a ridge of 1e-12 * (1 + max|M_ij|), which
    makes the solve total and returns the minimum-norm minimizer of the
    regularized system.  A row whose M is not finite gets a NaN multiplier.
    """
    M = J @ J.transpose(0, 2, 1)
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        y = np.full(J.shape[:2], np.nan)
        y[finite] = least_squares_multiplier(J[finite], g[finite])
        return y
    rhs = -J @ g[:, :, None]
    w = np.linalg.eigvalsh(M)
    ridged = w[:, 0] <= 1e-12 * np.maximum(1.0, w[:, -1])
    if ridged.any():
        M_r = M[ridged]
        ridge = 1e-12 * (1.0 + abs(M_r).max(axis=(1, 2)))
        M[ridged] = M_r + ridge[:, None, None] * np.eye(M.shape[-1])
    return np.linalg.solve(M, rhs)[:, :, 0]


def smallest_singular_value(J: np.ndarray) -> float:
    """Least of the min(m, n) singular values of J; used to audit LICQ status."""
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def kkt_matrix(H: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The saddle matrix [[H, J'], [J, 0]] as a new (n + m) x (n + m) array."""
    m, n = J.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = H
    K[:n, n:] = J.T
    K[n:, :n] = J
    return K


def dense_kkt_solve(H: np.ndarray, J: np.ndarray, rhs_top: np.ndarray):
    """Exact solve of [[H, J'], [J, 0]] [u; y] = [-rhs_top; 0].

    Verification / fallback oracle.  When J is rank deficient the (2,2)
    block is regularized with a diagonal of -1e-12 * (1 + max|(JJ')_ij|),
    up front or after a failed first factorization; the u component stays
    unique per the saddle-system structure.  A failure after the ridge
    raises LinAlgError.
    """
    m, n = J.shape
    K = kkt_matrix(H, J)
    rhs = np.concatenate([-rhs_top, np.zeros(m)])

    sigma = smallest_singular_value(J)
    sigma_max = norm2(J)
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

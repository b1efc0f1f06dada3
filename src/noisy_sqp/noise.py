"""Bounded-noise oracle over an exact problem, with evaluation counters.

Perturbations are uniform and scaled so the 2-norm (Frobenius for the
Jacobian) of each error stays within its bound:

    e_f ~ U(-eps_f, eps_f)                  e_g per component U(+-eps_g/sqrt(n))
    e_c per component U(+-eps_c/sqrt(m))    e_J per entry     U(+-eps_J/sqrt(mn))

Noise draws are fresh on every call, at a repeated point too.  Only the
exact evaluation behind them is reused: a sample at a point byte-equal to
the last one evaluated (the line search's accepted trial, sampled again as
the next iterate) takes that point's `ExactEvaluation` instead of calling
`evaluate` again.  Counting does not see the reuse: a value request costs one
function evaluation, a derivative request one gradient evaluation; the
weighted total counts gradients double.

A sample's errors all come from one ``rng.random(k)`` call, scaled entry by
entry as ``low + (high - low) * u``.  ``Generator.uniform`` applies that
same formula to each double it takes from the stream, so the one call gives
the same numbers, and leaves the generator in the same state, as one
``uniform`` call per error in the order (e_f, e_c, e_g, e_J).  An oracle
builds each request's draw layout once, when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import check_settings, number
from .problems import evaluate

EPS_MAX = float(np.finfo(float).max) / 2  # the largest eps whose draw range 2 eps is finite


@dataclass(frozen=True)
class NoiseSpec:
    """Noise bounds, each in [0, EPS_MAX]; eps_o in [0, eps_c] is the optimistic
    feasibility threshold (0 means eps_c)."""

    eps_f: float = number(0.0, f"[0, {EPS_MAX!r}]")
    eps_g: float = number(0.0, f"[0, {EPS_MAX!r}]")
    eps_c: float = number(0.0, f"[0, {EPS_MAX!r}]")
    eps_J: float = number(0.0, f"[0, {EPS_MAX!r}]")
    eps_o: float = number(0.0, f"[0, {EPS_MAX!r}]")

    def __post_init__(self):
        check_settings(self)
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if not self.eps_o <= self.eps_c:
            raise ValueError("eps_o must be in [0, eps_c]")


def derive_gradient_noise(eps_f: float, eps_c: float):
    """Align derivative noise with the value noise: eps_g = sqrt(eps_f), eps_J = sqrt(eps_c)."""
    if eps_f < 0 or eps_c < 0:
        raise ValueError("noise levels must be >= 0")
    return float(np.sqrt(eps_f)), float(np.sqrt(eps_c))


@dataclass(eq=False)
class NoisyEvaluation:
    """One noisy oracle sample; unrequested parts are None."""

    f_bar: float | None
    g_bar: np.ndarray | None
    c_bar: np.ndarray | None
    J_bar: np.ndarray | None


@dataclass
class EvalCounters:
    function_evals: int = 0
    gradient_evals: int = 0

    @property
    def weighted_total(self) -> int:
        return self.function_evals + 2 * self.gradient_evals

    def snapshot(self):
        return (self.function_evals, self.gradient_evals)


class NoisyOracle:
    """Owns the rng and the counters for one run; not shared across runs.

    ``exact`` is the exact evaluation behind the latest sample, made at the
    point whose shape and bytes ``_exact_at`` holds.  The draw layouts of the
    ``value``, ``derivative`` and ``both`` requests are built once, here.
    """

    def __init__(self, problem, spec: NoiseSpec, rng: np.random.Generator):
        self.problem = problem
        self.spec = spec
        self.rng = rng
        self.counters = EvalCounters()
        self.exact = None
        self._exact_at = None
        self._layouts = {want: self._layout(want) for want in ("value", "derivative", "both")}

    def sample(self, x, want: str = "both") -> NoisyEvaluation:
        x = np.asarray(x, dtype=float)
        at = (x.shape, x.tobytes())
        if at != self._exact_at:
            self.exact = evaluate(self.problem, x)
            self._exact_at = at
        exact = self.exact
        e_f, e_g, e_c, e_J = self._perturbations(exact, want)
        f_bar = g_bar = c_bar = J_bar = None
        if want in ("value", "both"):
            f_bar = exact.f + e_f
            c_bar = exact.c + e_c
            self.counters.function_evals += 1
        if want in ("derivative", "both"):
            g_bar = exact.g + e_g
            J_bar = exact.J + e_J
            self.counters.gradient_evals += 1
        return NoisyEvaluation(f_bar, g_bar, c_bar, J_bar)

    def _layout(self, want):
        """Bounds of one request's drawn entries: (low, high - low, slices).

        ``slices`` maps each drawn error ("f", "c", "g", "J") to its entries
        of the one draw; an error whose eps is 0 is not drawn.  Each entry of
        an error of size s lies in U(-a, a) with a = eps / sqrt(s).
        """
        m, n = self.problem.m, self.problem.n
        names = {"value": "fc", "derivative": "gJ", "both": "fcgJ"}[want]
        sizes = {"f": 1, "c": m, "g": n, "J": m * n}
        low, slices = [], {}
        for name in names:
            eps = getattr(self.spec, "eps_" + name)
            if eps > 0:
                size = sizes[name]
                a = eps / math.sqrt(size)
                slices[name] = slice(len(low), len(low) + size)
                low += [-a] * size
        return np.array(low), -2.0 * np.array(low), slices

    def _perturbations(self, exact, want):
        """Draw the uniform errors; override point for crafted test fixtures.

        Draw order is fixed (e_f, e_c, e_g, e_J) so streams are reproducible
        per seed, and one ``rng.random`` call draws them all (see the module
        docstring); an error whose eps is 0 takes no draw and is zero.  Rows
        listed in the problem's shared_noise_rows receive the noise of the
        row they duplicate.
        """
        low, span, at = self._layouts[want]
        if at:
            draws = low + span * self.rng.random(low.size)
        m, n = self.problem.m, self.problem.n
        shared = self.problem.shared_noise_rows
        e_f = e_g = e_c = e_J = 0.0
        if want in ("value", "both"):
            if "f" in at:
                e_f = float(draws[0])
            e_c = draws[at["c"]] if "c" in at else np.zeros(m)
            for src, dst in shared:
                e_c[dst] = e_c[src]
        if want in ("derivative", "both"):
            e_g = draws[at["g"]] if "g" in at else np.zeros(n)
            e_J = draws[at["J"]].reshape(m, n) if "J" in at else np.zeros((m, n))
            for src, dst in shared:
                e_J[dst] = e_J[src]
        return e_f, e_g, e_c, e_J


def sample_noisy(problem, spec: NoiseSpec, x, rng: np.random.Generator,
                 want: str = "both") -> NoisyEvaluation:
    """One-shot draw with the same stream layout as NoisyOracle.sample."""
    return NoisyOracle(problem, spec, rng).sample(x, want)

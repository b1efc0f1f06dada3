"""Main solver loop with the optimistic feasibility gate and both early exits.

One call to `solve` runs the full iteration: sample the noisy oracle, pick
the branch on ||c_bar|| <= eps_o, build the step bundle under the matching
termination test, update the merit parameter tau (a float that only
decreases), and make one `step` call on the run's step-size controller
(`stepsize.AdaptiveState` or `stepsize.LineSearch`).  Each iteration appends
one `IterRecord`; the run stops at the first status, from an early exit, a
non-finite sample or step, a budget or the controller.  Exact ground-truth
snapshots are recorded next to every noisy sample for post-hoc error
measurement; they never feed the solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import merit, steps, stepsize
from .linalg import all_finite, norm2, norm_inf
from .noise import NoiseSpec, NoisyOracle
from .problems import ProblemSpec, evaluate
from .stepsize import LINE_SEARCH_FAILURE, NONFINITE, AdaptiveSeeds

BUDGET_ITERS = "budget_iters"
BUDGET_EVALS = "budget_evals"
EARLY_STATIONARY = "early_stationary"
EARLY_INFEASIBLE = "early_infeasible_stationary"
DEGENERATE = "degenerate_direction"
TEST_UNSATISFIABLE = "test_unsatisfiable"

FEASIBLE_BRANCH = "feasible_branch"
INFEASIBLE_BRANCH = "infeasible_branch"

ADAPTIVE = "adaptive"
LINE_SEARCH = "line_search"


@dataclass
class SolverParams:
    """Everything `solve` needs besides the problem and the seed.

    ``benchmark_defaults`` loads the benchmark preset: tau0 = 1, lambda_u = 5e-9,
    sigma_Jc = 1e2, sigma_u = 0.99, sigma_c = 0.1, sigma_r = 0.9999,
    sigma_tau = 1e-2, xi0 = 1, chi0 = 1e-3, zeta0 = 1e3, theta = 1e4,
    eta = 0.5 / beta = 1 (adaptive) or alpha_u = 1 / eta = 1e-3 / nu = 0.5
    (line search), kappa_u = kappa_v = 1e-2 when inexact.
    """

    noise: NoiseSpec = field(default_factory=NoiseSpec)
    variant: str = ADAPTIVE
    optimism: str = "optimistic"
    exactness: str = "inexact"
    kappa_u: float = 1e-2
    kappa_v: float = 1e-2
    tests: steps.TestParams = field(default_factory=steps.TestParams)
    tau0: float = 1.0
    sigma_tau: float = 1e-2
    adaptive: AdaptiveSeeds = field(default_factory=AdaptiveSeeds)
    ls: stepsize.LineSearchParams = field(default_factory=stepsize.LineSearchParams)
    max_iters: int = 1000
    max_weighted_evals: int = 10000
    tol_d: float = 1e-14
    tol_feas: float = 1e-12
    H: np.ndarray | None = None  # problem preference, then identity, when None

    def validate(self):
        if self.variant not in (ADAPTIVE, LINE_SEARCH):
            raise ValueError(f"bad variant {self.variant!r}")
        if self.optimism not in ("optimistic", "pessimistic"):
            raise ValueError(f"bad optimism {self.optimism!r}")
        if self.exactness not in ("exact", "inexact"):
            raise ValueError(f"bad exactness {self.exactness!r}")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be > 0")
        if not 0.0 < self.sigma_tau < 1.0:
            raise ValueError("sigma_tau must be in (0,1)")
        if self.max_iters < 1 or self.max_weighted_evals < 1:
            raise ValueError("budgets must be positive")
        if not self.tol_d >= 0.0:
            raise ValueError("tol_d must be >= 0")
        return self

    @classmethod
    def benchmark_defaults(cls, noise: NoiseSpec, variant: str = ADAPTIVE,
                       optimism: str = "optimistic", exactness: str = "inexact",
                       kappa: float = 1e-2, **overrides):
        params = cls(noise=noise, variant=variant, optimism=optimism,
                     exactness=exactness, kappa_u=kappa, kappa_v=kappa)
        for key, val in overrides.items():
            setattr(params, key, val)
        return params.validate()

    def resolved_eps_o(self) -> float:
        """Optimistic: ``noise.eps_o``, or eps_c when that is 0.  Pessimistic: 0."""
        return (self.noise.eps_o or self.noise.eps_c) if self.optimism == "optimistic" else 0.0


@dataclass
class IterRecord:
    """One loop iteration; alpha = 0 marks a terminal partial iteration."""

    k: int
    x: np.ndarray
    noisy: object
    exact: object
    bundle: steps.StepBundle | None
    tau_prev: float
    tau: float
    alpha: float
    branch: str
    counters_delta: tuple
    delta_l: float | None = None
    # adaptive controller snapshot
    chi: float | None = None
    zeta: float | None = None
    xi: float | None = None
    alpha_suff: float | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    # line search snapshot (cached merit values used for acceptance)
    phi0: float | None = None
    phi_accept: float | None = None
    relax: float | None = None
    backtracks: int | None = None


@dataclass
class RunTrace:
    problem: str
    n: int
    m: int
    records: list
    status: str
    counters: object
    seed: int
    eps_o: float
    variant: str
    H: np.ndarray  # curvature matrix the solver used
    tau0: float
    adaptive_state: stepsize.AdaptiveState | None = None

    @property
    def tau_history(self) -> list:
        """(-1, tau0), then (k, tau) after each record's merit-parameter update."""
        return [(-1, self.tau0)] + [(r.k, r.tau) for r in self.records]

    @property
    def minres_iters(self) -> int:
        return sum(r.bundle.minres_iters for r in self.records if r.bundle is not None)

    @property
    def cg_iters(self) -> int:
        return sum(r.bundle.cg_iters for r in self.records if r.bundle is not None)


def _finite_sample(noisy) -> bool:
    """True when a full oracle sample holds no NaN or Inf."""
    return (math.isfinite(noisy.f_bar) and all_finite(noisy.g_bar)
            and all_finite(noisy.c_bar) and all_finite(noisy.J_bar))


def solve(problem: ProblemSpec, params: SolverParams, seed: int,
          oracle: NoisyOracle | None = None) -> RunTrace:
    """Run the solver on one problem; never raises for algorithmic outcomes.

    A caller-supplied oracle takes over noisy sampling (used by crafted
    fixtures); by default a fresh uniformly-perturbing oracle is seeded from
    ``seed``.  The ground-truth snapshot of each iterate is the evaluation
    the default oracle made for that iterate's sample (``oracle.exact``);
    with a caller-supplied oracle it is a separate ``evaluate(problem, x)``,
    so a crafted oracle never supplies it.
    """
    params.validate()
    own_oracle = oracle is None
    if own_oracle:
        oracle = NoisyOracle(problem, params.noise, np.random.default_rng(seed))
    eps_o = params.resolved_eps_o()
    # numerical meaning of "||c|| <= eps_o" at eps_o = 0: the branch gate gets
    # an absolute floor so machine-precision-feasible iterates take the
    # tangential-only branch instead of the infeasible-stationary exit
    branch_gate = max(eps_o, params.tol_feas)
    noise = params.noise
    exact_mode = params.exactness == "exact"
    n = problem.n
    H = params.H if params.H is not None else getattr(problem, "H", None)
    H = np.eye(n) if H is None else np.asarray(H, dtype=float)
    if H.shape != (n, n) or not np.isfinite(H).all() or not (H == H.T).all():
        raise ValueError(f"H must be a finite symmetric {n} x {n} matrix")
    if params.variant == ADAPTIVE:
        controller = stepsize.AdaptiveState(params.adaptive, oracle, problem.x0, params.tau0, H)
    else:
        controller = stepsize.LineSearch(oracle, noise, params.ls)

    records: list[IterRecord] = []
    counters = oracle.counters
    x = problem.x0.copy()  # rebound every step, never mutated in place
    tau = params.tau0
    k = 0

    # reads the current iteration's locals when called
    def make_record(bundle, alpha, delta_l=None, **fields):
        after = counters.snapshot()
        return IterRecord(
            k=k, x=x, noisy=noisy, exact=exact, bundle=bundle,
            tau_prev=tau_prev, tau=tau, alpha=alpha, branch=branch,
            counters_delta=(after[0] - before[0], after[1] - before[1]),
            delta_l=delta_l, **fields)

    while True:
        if k >= params.max_iters:
            status = BUDGET_ITERS
            break
        if counters.weighted_total >= params.max_weighted_evals:
            status = BUDGET_EVALS
            break
        before = counters.snapshot()
        noisy = oracle.sample(x, want="both")
        exact = oracle.exact if own_oracle else evaluate(problem, x)
        tau_prev = tau
        # built ahead of the finiteness test: that exit's record carries the branch
        lin = merit.Linearization(noisy.g_bar, noisy.c_bar, noisy.J_bar)
        feasible = lin.c_norm <= branch_gate
        branch = FEASIBLE_BRANCH if feasible else INFEASIBLE_BRANCH
        if not _finite_sample(noisy):
            records.append(make_record(None, 0.0))
            status = NONFINITE
            break
        if feasible:
            normal = steps.NormalStep(np.zeros(n), lin.c, lin.c_norm)
        else:
            if lin.Jtc_inf <= steps.tol_Jc(lin.c):
                records.append(make_record(None, 0.0))
                status = EARLY_INFEASIBLE
                break
            normal = steps.normal_step(lin, params.tests, params.kappa_v,
                                       noise.eps_f, noise.eps_c, exact=exact_mode)
        try:
            bundle = steps.tangential_step(
                H, lin, normal, tau, params.tests, eps_o, params.kappa_u,
                noise.eps_f, noise.eps_c, exact=exact_mode, feasible=feasible)
        except steps.TestUnsatisfiable:
            records.append(make_record(None, 0.0))
            status = TEST_UNSATISFIABLE
            break
        if (bundle.fallback_case or bundle.test) == steps.TT2_COND1:
            trial = merit.tau_trial(
                lin.g, bundle.d, bundle.u, H, lin.c_norm,
                norm2(normal.c_v + bundle.r), params.tests)
            tau = merit.tau_update(tau, trial, params.sigma_tau)
        d = bundle.d
        if tau == tau_prev and bundle.tt2_delta_l is not None:
            delta_l = bundle.tt2_delta_l  # the same reduction, formed by TT2
        else:
            delta_l = merit.model_reduction(tau, lin, d)
        if feasible and delta_l <= eps_o:
            records.append(make_record(bundle, 0.0, delta_l))
            status = EARLY_STATIONARY
            break
        dd = float(d.dot(d))
        finite = math.isfinite(dd)  # false when MINRES or CG overflowed
        if not finite or norm_inf(d) <= params.tol_d or dd == 0.0:
            records.append(make_record(bundle, 0.0, delta_l))
            status = DEGENERATE if finite else NONFINITE
            break

        alpha, x_next, fields, status = controller.step(x, noisy, bundle, tau, delta_l, dd)
        records.append(make_record(bundle, alpha, delta_l, **fields))
        if status is not None:
            break
        x = x_next  # the line search's accepted trial: the oracle reuses its evaluation
        k += 1

    return RunTrace(
        problem=problem.name, n=problem.n, m=problem.m, records=records,
        status=status, counters=oracle.counters, seed=seed,
        eps_o=eps_o, variant=params.variant, H=H, tau0=params.tau0,
        adaptive_state=controller if params.variant == ADAPTIVE else None)

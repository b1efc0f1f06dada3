"""Main solver loop with the optimistic feasibility gate and both early exits.

One call to `solve` runs the full iteration: sample the noisy oracle, pick
the branch on ||c_bar|| <= eps_o, build the step bundle under the matching
termination test, update the merit parameter, choose the step size with the
configured controller, and advance.  Exact ground-truth snapshots are
recorded next to every noisy sample for post-hoc error measurement; they
never feed the solver path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import merit, steps, stepsize
from .linalg import norm2, norm_inf
from .noise import NoiseSpec, NoisyOracle
from .problems import ProblemSpec, evaluate

BUDGET_ITERS = "budget_iters"
BUDGET_EVALS = "budget_evals"
EARLY_STATIONARY = "early_stationary"
EARLY_INFEASIBLE = "early_infeasible_stationary"
DEGENERATE = "degenerate_direction"
LINE_SEARCH_FAILURE = "line_search_failure"
TEST_UNSATISFIABLE = "test_unsatisfiable"
NONFINITE = "nonfinite_evaluation"

FEASIBLE_BRANCH = "feasible_branch"
INFEASIBLE_BRANCH = "infeasible_branch"

ADAPTIVE = "adaptive"
LINE_SEARCH = "line_search"


@dataclass
class AdaptiveSeeds:
    """Initial values and meta-parameters for the Option I controller."""

    beta: float = 1.0
    eta: float = 0.5
    theta: float = 1e4
    chi0: float = 1e-3
    zeta0: float = 1e3
    xi0: float = 1.0
    sigma_chi: float = 0.1
    sigma_zeta: float = 0.1
    sigma_xi: float = 0.1
    lipschitz_dirs: int = 10
    lipschitz_delta: float = 1e-2
    lipschitz_floor: float = 1e-4


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
        return self.noise.eps_c if self.optimism == "optimistic" else 0.0


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
    tau_history: list = field(default_factory=list)
    adaptive_state: stepsize.AdaptiveState | None = None

    @property
    def minres_iters(self) -> int:
        return sum(r.bundle.minres_iters for r in self.records if r.bundle is not None)

    @property
    def cg_iters(self) -> int:
        return sum(r.bundle.cg_iters for r in self.records if r.bundle is not None)


def _finite_sample(noisy) -> bool:
    """True when a full oracle sample holds no NaN or Inf."""
    # one isfinite pass over the concatenation costs less than one per part
    parts = np.concatenate((noisy.g_bar, noisy.c_bar, noisy.J_bar.ravel()))
    return math.isfinite(noisy.f_bar) and bool(np.isfinite(parts).all())


class _NonFiniteTrial(Exception):
    """A line-search trial point gave a NaN or Inf merit value."""


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
    tau_state = merit.TauState(params.tau0)
    records: list[IterRecord] = []
    adapt = None
    if params.variant == ADAPTIVE:
        seeds = params.adaptive
        L, Gamma = stepsize.estimate_lipschitz(
            oracle, problem.x0, n_dirs=seeds.lipschitz_dirs,
            delta=seeds.lipschitz_delta, floor=seeds.lipschitz_floor)
        L, Gamma = stepsize.clamp_beta_admissible(
            L, Gamma, seeds.beta, seeds.eta, seeds.xi0, params.tau0)
        adapt = stepsize.AdaptiveState(
            chi=seeds.chi0, zeta=seeds.zeta0, xi=seeds.xi0, beta=seeds.beta,
            eta=seeds.eta, theta=seeds.theta, L_est=L, Gamma_est=Gamma,
            sigma_chi=seeds.sigma_chi, sigma_zeta=seeds.sigma_zeta,
            sigma_xi=seeds.sigma_xi)

    counters = oracle.counters
    x = problem.x0.copy()  # rebound every step, never mutated in place
    status = None
    k = 0

    # reads the current iteration's locals when called
    def make_record(bundle, tau, alpha, **extra):
        after = counters.snapshot()
        return IterRecord(
            k=k, x=x, noisy=noisy, exact=exact, bundle=bundle,
            tau_prev=tau_prev, tau=tau, alpha=alpha, branch=branch,
            counters_delta=(after[0] - before[0], after[1] - before[1]),
            **extra)

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
        tau_prev = tau_state.tau
        # built ahead of the finiteness test: that exit's record carries the branch
        lin = merit.Linearization(noisy.g_bar, noisy.c_bar, noisy.J_bar)
        feasible = lin.c_norm <= branch_gate
        branch = FEASIBLE_BRANCH if feasible else INFEASIBLE_BRANCH
        if not _finite_sample(noisy):
            records.append(make_record(None, tau_prev, 0.0))
            status = NONFINITE
            break
        if feasible:
            normal = steps.NormalStep(np.zeros(n), lin.c, lin.c_norm)
            tau_state.keep(k)
        else:
            if lin.Jtc_inf <= steps.tol_Jc(lin.c):
                records.append(make_record(None, tau_prev, 0.0))
                status = EARLY_INFEASIBLE
                break
            normal = steps.normal_step(lin, params.tests, params.kappa_v,
                                       noise.eps_f, noise.eps_c, exact=exact_mode)
        try:
            bundle = steps.tangential_step(
                H, lin, normal, tau_prev, params.tests, eps_o, params.kappa_u,
                noise.eps_f, noise.eps_c, exact=exact_mode, feasible=feasible)
        except steps.TestUnsatisfiable:
            records.append(make_record(None, tau_prev, 0.0))
            status = TEST_UNSATISFIABLE
            break
        outcome = bundle.fallback_case or bundle.test
        if outcome == steps.TT2_COND1:
            trial = merit.tau_trial(
                lin.g, bundle.d, bundle.u, H, lin.c_norm,
                norm2(normal.c_v + bundle.r), params.tests)
            merit.tau_update(tau_state, trial, params.sigma_tau, k)
        elif not feasible:
            tau_state.keep(k)
        tau_k = tau_state.tau
        d = bundle.d
        if tau_k == tau_prev and bundle.tt2_delta_l is not None:
            delta_l = bundle.tt2_delta_l  # the same reduction, formed by TT2
        else:
            delta_l = merit.model_reduction(tau_k, lin, d)
        if feasible and delta_l <= eps_o:
            records.append(make_record(bundle, tau_k, 0.0, delta_l=delta_l))
            status = EARLY_STATIONARY
            break

        dd = float(d.dot(d))
        if norm_inf(d) <= params.tol_d or dd == 0.0:
            records.append(make_record(bundle, tau_k, 0.0, delta_l=delta_l))
            status = DEGENERATE
            break

        if adapt is not None:
            u, v = bundle.u, bundle.v
            uu, vv = float(u.dot(u)), float(v.dot(v))
            stepsize.update_chi_zeta(adapt, uu, vv, float(d.dot(H.dot(d))))
            stepsize.xi_update(adapt, delta_l, tau_k, uu, vv, dd)
            alpha, a_suff, a_min, a_max = stepsize.adaptive_alpha(
                adapt, delta_l, tau_k, uu, vv, dd)
            records.append(make_record(
                bundle, tau_k, alpha, delta_l=delta_l,
                chi=adapt.chi, zeta=adapt.zeta, xi=adapt.xi,
                alpha_suff=a_suff, alpha_min=a_min, alpha_max=a_max))
        else:
            phi0 = merit.merit_value(tau_k, noisy.f_bar, lin.c)
            relax = stepsize.epsilon_Ak(
                tau_k, noise.eps_f, noise.eps_c, noise.eps_g, noise.eps_J,
                params.ls.alpha_u, math.sqrt(dd))
            trial_values = []

            def merit_eval(a):
                trial = oracle.sample(x + a * d, want="value")
                val = merit.merit_value(tau_k, trial.f_bar, trial.c_bar)
                trial_values.append(val)
                if not math.isfinite(val):
                    raise _NonFiniteTrial
                return val

            try:
                alpha, backtracks = stepsize.line_search_alpha(
                    merit_eval, phi0, delta_l, relax, params.ls)
            except (stepsize.BacktrackExhausted, _NonFiniteTrial) as exc:
                records.append(make_record(
                    bundle, tau_k, 0.0, delta_l=delta_l, phi0=phi0,
                    relax=relax, backtracks=len(trial_values) - 1))
                status = (NONFINITE if isinstance(exc, _NonFiniteTrial)
                          else LINE_SEARCH_FAILURE)
                break
            records.append(make_record(
                bundle, tau_k, alpha, delta_l=delta_l, phi0=phi0,
                phi_accept=trial_values[-1], relax=relax, backtracks=backtracks))

        x = x + alpha * d
        k += 1

    return RunTrace(
        problem=problem.name, n=problem.n, m=problem.m, records=records,
        status=status, counters=oracle.counters, seed=seed,
        eps_o=eps_o, variant=params.variant, H=H,
        tau_history=list(tau_state.history), adaptive_state=adapt)

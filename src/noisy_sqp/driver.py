"""Main solver loop with the optimistic feasibility gate and both early exits.

One call to `solve` runs the full iteration: sample the noisy oracle, pick
the branch on ||c_bar|| <= eps_o, build the step bundle under the matching
termination test, update the merit parameter tau (a float that only
decreases) from the trial value the accepting TT2_cond1 check formed, form
the model reduction from the check's g'd and ||c + Jd||, and make one `step`
call on the run's step-size controller (`stepsize.AdaptiveState` or
`stepsize.LineSearch`).  A step that no termination test accepts arrives as
no bundle and ends the run as `test_unsatisfiable`.  Each iteration appends
one `IterRecord`; the run stops at the first status, from an early exit, a
non-finite sample or step, a budget or the controller.  Exact ground-truth
snapshots are recorded next to every noisy sample for post-hoc error
measurement; they never feed the solver path.  A record copies the
iteration's vectors into one packed row and hands out views into it: a
write into a view's array changes the trace, and nothing else does.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from . import merit, steps, stepsize
from .linalg import all_finite, norm2, norm_inf
from .linalg import check_settings, instance_of, number, one_of
from .noise import NoiseSpec, NoisyEvaluation, NoisyOracle
from .problems import ExactEvaluation, ProblemSpec, evaluate
from .stepsize import LINE_SEARCH_FAILURE, NONFINITE

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

# the variant axes: grid and CSV names -> solver names (exactness uses one name)
SCHEMES = {"ada": ADAPTIVE, "ls": LINE_SEARCH}
OPTIMISMS = {"opt": "optimistic", "pes": "pessimistic"}
EXACTNESS = ("exact", "inexact")

# the least value of the branch gate, absolute: the pinned zero-noise unit-circle
# run steps on the infeasible branch at ||c|| down to 1.1e-12 with ||g|| = 1.41
TOL_FEAS = 1e-12


@dataclass(frozen=True)
class SolverParams:
    """Everything `solve` needs besides the problem and the seed (H is the problem's, else I).

    These are the settings the CLI and grid configs set; the defaults are the
    benchmark preset that ``benchmark_defaults`` loads.  The solver's fixed
    constants are module constants next to the code that reads them: the
    termination tests', the normal step's and tau's in `merit`, the two
    step-size controllers' in `stepsize`.  Frozen, as every settings class
    is: each field's declared range is checked once, when it is built.
    """

    noise: NoiseSpec = instance_of(NoiseSpec)
    variant: str = one_of(ADAPTIVE, SCHEMES.values())
    optimism: str = one_of("optimistic", OPTIMISMS.values())
    exactness: str = one_of("inexact", EXACTNESS)
    kappa: float = number(1e-2, "(0, inf)")
    max_iters: int = number(1000, "[1, inf)", integer=True)
    max_weighted_evals: int = number(10000, "[1, inf)", integer=True)

    __post_init__ = check_settings

    @classmethod
    def benchmark_defaults(cls, noise: NoiseSpec, **settings):
        return cls(noise=noise, **settings)

    def resolved_eps_o(self) -> float:
        """Optimistic: ``noise.eps_o``, or eps_c when that is 0.  Pessimistic: 0."""
        return (self.noise.eps_o or self.noise.eps_c) if self.optimism == "optimistic" else 0.0


@dataclass(slots=True, eq=False)
class IterRecord:
    """One loop iteration; alpha = 0 marks a terminal partial iteration.

    Scalars sit in slots, vectors in one float64 row (see `_layout`): ``x``,
    ``noisy``, ``exact`` and ``bundle`` are views into it, built on access.  A
    write into a view's array changes the record; setting a view's attribute
    changes only that view.  Records compare by identity."""

    k: int
    tau_prev: float
    tau: float
    alpha: float
    branch: str
    counters_delta: tuple
    _row: np.ndarray
    _at: tuple  # the row's `_layout`
    _f_bar: float
    _f: float
    _bundle: tuple | None  # the bundle's BUNDLE_SCALARS, None without a bundle
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

    @classmethod
    def pack(cls, x, noisy, exact, bundle, **scalars):
        vectors = () if bundle is None else (bundle.v, bundle.d, bundle.z, bundle.resid)
        row = np.concatenate((x, noisy.g_bar, noisy.c_bar, noisy.J_bar, exact.g, exact.c,
                              exact.J, *vectors), axis=None)
        return cls(_row=row, _at=_layout(len(x), len(exact.c)), _f_bar=noisy.f_bar, _f=exact.f,
                   _bundle=None if bundle is None else _bundle_scalars(bundle), **scalars)

    def _parts(self, first, stop):
        """The row's vectors ``first`` to ``stop - 1``, in their shapes."""
        return [self._row[at].reshape(shape) for at, shape in self._at[first:stop]]

    x = property(lambda self: self._parts(0, 1)[0])
    noisy = property(lambda self: NoisyEvaluation(self._f_bar, *self._parts(1, 4)))
    exact = property(lambda self: ExactEvaluation(self._f, *self._parts(4, 7)))
    bundle = property(lambda self: None if self._bundle is None
                      else steps.StepBundle(*self._parts(7, 11), *self._bundle))


@functools.cache
def _layout(n, m):
    """(slice, shape) of a record row's x, noisy g, c, J, exact g, c, J, and v, d, z, resid."""
    shapes = [(n,), (n,), (m,), (m, n), (n,), (m,), (m, n), (n,), (n,), (n + m,), (n + m,)]
    ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
    return tuple((slice(end - math.prod(shape), end), shape) for shape, end in zip(shapes, ends))


# a bundle's fields after v, d, z and resid
BUNDLE_SCALARS = tuple(f.name for f in dataclasses.fields(steps.StepBundle)[4:])
_bundle_scalars = attrgetter(*BUNDLE_SCALARS)
_MINRES, _CG = BUNDLE_SCALARS.index("minres_iters"), BUNDLE_SCALARS.index("cg_iters")


@dataclass(eq=False)
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
    adaptive_state: stepsize.AdaptiveState | None = None

    @property
    def tau_history(self) -> list:
        """(-1, TAU0), then (k, tau) after each record's merit-parameter update."""
        return [(-1, merit.TAU0)] + [(r.k, r.tau) for r in self.records]

    # summed over the records' stored bundle scalars: no bundle is built
    @property
    def minres_iters(self) -> int:
        return sum(r._bundle[_MINRES] for r in self.records if r._bundle is not None)

    @property
    def cg_iters(self) -> int:
        return sum(r._bundle[_CG] for r in self.records if r._bundle is not None)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a value the stop rules read
def solve(problem: ProblemSpec, params: SolverParams, seed: int,
          oracle: NoisyOracle | None = None) -> RunTrace:
    """Run the solver on one problem; never raises or warns for algorithmic outcomes.

    A caller-supplied oracle takes over noisy sampling (used by crafted
    fixtures); by default a fresh uniformly-perturbing oracle is seeded from
    ``seed``.  The ground-truth snapshot of each iterate is the evaluation
    the default oracle made for that iterate's sample (``oracle.exact``);
    with a caller-supplied oracle it is a separate ``evaluate(problem, x)``,
    so a crafted oracle never supplies it.
    """
    own_oracle = oracle is None
    if own_oracle:
        oracle = NoisyOracle(problem, params.noise, np.random.default_rng(seed))
    eps_o = params.resolved_eps_o()
    # numerical meaning of "||c|| <= eps_o" at eps_o = 0: the branch gate gets
    # an absolute floor so machine-precision-feasible iterates take the
    # tangential-only branch instead of the infeasible-stationary exit
    branch_gate = max(eps_o, TOL_FEAS)
    noise = params.noise
    # the coefficient of both step solvers' residual gates
    coef = (1e-10 if params.exactness == "exact"
            else params.kappa * min(noise.eps_c, noise.eps_f))
    n = problem.n
    H = np.eye(n) if problem.H is None else np.asarray(problem.H, dtype=float)
    if H.shape != (n, n) or not np.isfinite(H).all() or not (H == H.T).all():
        raise ValueError(f"H must be a finite symmetric {n} x {n} matrix")
    status = None
    if params.variant == ADAPTIVE:
        controller = stepsize.AdaptiveState(oracle, problem.x0, H)
        if not math.isfinite(controller.L_est + controller.Gamma_est):
            status = NONFINITE  # the start-up samples left no finite Lipschitz estimate
    else:
        controller = stepsize.LineSearch(oracle, noise)

    records: list[IterRecord] = []
    counters = oracle.counters
    x = problem.x0.copy()  # rebound every step, never mutated in place
    tau = merit.TAU0
    k = 0
    while status is None:
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
        # built first: the finiteness test reads its norms, and round_off is finite once
        # that test passes; that exit's record carries the branch
        lin = merit.Linearization(noisy.g_bar, noisy.c_bar, noisy.J_bar)
        feasible = lin.c_norm <= branch_gate
        branch = FEASIBLE_BRANCH if feasible else INFEASIBLE_BRANCH
        # the stop rules in order, each run while status is None; a stop before
        # the controller's step records alpha = 0 and what was formed so far
        status = bundle = delta_l = None
        alpha, fields = 0.0, {}
        if not (math.isfinite(noisy.f_bar) and math.isfinite(lin.g_norm)
                and math.isfinite(lin.c_norm) and all_finite(noisy.J_bar)):
            status = NONFINITE  # a NaN, Inf or overflow in g or c makes its norm non-finite
        elif not feasible and lin.Jtc_inf <= lin.round_off \
                and lin.Jtc_norm <= 1e-3 * norm2(lin.J) * lin.c_norm:
            # J'c at round-off and c nearly orthogonal to range(J); the latter
            # never holds when sigma_min(J) > 1e-3 ||J||_F, whatever c is
            status = EARLY_INFEASIBLE
        else:
            normal = (steps.NormalStep(np.zeros(n), lin.c, lin.c_norm) if feasible
                      else steps.normal_step(lin, coef))
            bundle = steps.tangential_step(H, lin, normal, tau, eps_o, coef, feasible=feasible)
            if bundle is None:
                status = TEST_UNSATISFIABLE
        if status is None:
            if bundle.tau_trial is not None:
                tau = merit.tau_update(tau, bundle.tau_trial)
            delta_l = merit.model_reduction(tau, lin.c_norm, bundle.gd, bundle.cd_norm)
            d = bundle.d
            if feasible and delta_l <= eps_o:
                status = EARLY_STATIONARY
            elif not math.isfinite(dd := float(d.dot(d))):  # MINRES or CG overflowed
                status = NONFINITE
            # no controller steps on delta_l <= 0 (only the tests' round-off slack
            # lets one through) or on max|d| below a tenth of the round-off scale
            elif delta_l <= 0.0 or norm_inf(d) <= lin.round_off / 10:
                status = DEGENERATE
            else:
                alpha, x_next, fields, status = controller.step(x, noisy, bundle, tau, delta_l, dd)
        after = counters.snapshot()
        records.append(IterRecord.pack(
            k=k, x=x, noisy=noisy, exact=exact, bundle=bundle, tau_prev=tau_prev, tau=tau,
            alpha=alpha, branch=branch, delta_l=delta_l,
            counters_delta=(after[0] - before[0], after[1] - before[1]), **fields))
        if status is not None:
            break
        x = x_next  # the line search's accepted trial: the oracle reuses its evaluation
        k += 1

    return RunTrace(
        problem=problem.name, n=problem.n, m=problem.m, records=records,
        status=status, counters=oracle.counters, seed=seed, eps_o=eps_o, variant=params.variant,
        H=H, adaptive_state=controller if params.variant == ADAPTIVE else None)

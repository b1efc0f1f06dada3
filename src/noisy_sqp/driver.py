"""Main solver loop with the optimistic feasibility gate and both early exits.

One call to `solve` runs the full iteration: sample the noisy oracle, pick
the branch on ||c_bar|| <= eps_o, build the step bundle under the matching
termination test, update the merit parameter tau (a float that only
decreases) from the trial value the accepting TT2_cond1 check formed, form
the model reduction from the check's g'd and ||c + Jd||, and make one `step`
call on the run's step-size controller (`stepsize.AdaptiveState` or
`stepsize.LineSearch`).  A step that no termination test accepts arrives as
no bundle and ends the run as `test_unsatisfiable`.  Each iteration writes
one row of the run's `RunTrace` table; the run stops at the first status,
from an early exit, a non-finite sample or step, a budget or the controller.
Exact ground-truth snapshots are recorded next to every noisy sample for
post-hoc error measurement; they never feed the solver path.  A trace's
records are views of its rows: a write into a view's array or a record's
scalar changes the trace, and nothing else does.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

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

    These are the settings the CLI and grid configs set, each defaulting to the
    benchmark's value.  The solver's fixed constants are module constants next to the
    code that reads them: the termination tests', the normal step's and tau's in
    `merit`, the two step-size controllers' in `stepsize`.  Frozen, as every settings
    class is: each field's declared range is checked once, when it is built.
    """

    noise: NoiseSpec = instance_of(NoiseSpec)
    variant: str = one_of(ADAPTIVE, SCHEMES.values())
    optimism: str = one_of("optimistic", OPTIMISMS.values())
    exactness: str = one_of("inexact", EXACTNESS)
    kappa: float = number(1e-2, "(0, inf)")
    max_iters: int = number(1000, "[1, inf)", integer=True)
    max_weighted_evals: int = number(10000, "[1, inf)", integer=True)

    __post_init__ = check_settings


# rows per block of a trace's table; `harness.best_iterate` stacks a block per call
BEST_ITERATE_CHUNK = 256
_BUNDLE = dataclasses.fields(steps.StepBundle)[3:]  # a bundle's fields after v, z and resid
# a row's scalar columns and their numpy types: a record's settable fields, its counter
# deltas, the noisy and exact f and the bundle's fields; a text field holds its name
_FIELDS = dict(tau_prev=float, tau=float, alpha=float, branch=object, delta_l=float, chi=float,
               zeta=float, xi=float, alpha_suff=float, alpha_min=float, alpha_max=float,
               phi0=float, phi_accept=float, relax=float, backtracks=np.int64)
_COLUMNS = dict(_FIELDS, function_evals=np.int64, gradient_evals=np.int64, f_bar=float, f=float,
                **{f.name: {"str": object, "int": np.int64, "float": float}[f.type.split()[0]]
                   for f in _BUNDLE})


@functools.cache
def _row(n, m):
    """A trace row: a float64, int64 or object field per scalar column, then x, the noisy and
    exact g, c and J, and a bundle's v, z and resid, each a float64 array in its shape, and last
    ``has``, which marks the scalars it holds; aligned, so every row's floats are 8-byte aligned."""
    vectors = dict(x=n, g_bar=n, c_bar=m, J_bar=(m, n), g=n, c=m, J=(m, n), v=n, z=n + m,
                   resid=n + m)
    return np.dtype([*_COLUMNS.items()] + [(name, float, shape) for name, shape in vectors.items()]
                    + [("has", [(name, bool) for name in _COLUMNS])], align=True)


class IterRecord:
    """Row k of a trace's table: one loop iteration; alpha = 0 marks a terminal partial one.

    A scalar field reads as its Python type (None where the row's mask says absent) and
    setting it writes the table.  ``x``, ``noisy``, ``exact`` and ``bundle`` (d = v + u
    formed on read) are views into the row, built on access, that cannot be set: a write
    into a view's array changes the record, setting a view's attribute only that view."""

    __slots__ = ("k", "_block", "_i")

    def __init__(self, trace, k):
        self.k, (b, self._i) = k, divmod(k, BEST_ITERATE_CHUNK)
        self._block = trace.blocks[b]

    def _read(self, name):
        if self._block["has"][name][self._i]:
            return self._block[name].item(self._i)

    def _write(self, name, value):
        self._block[name][self._i] = 0 if value is None else value
        self._block["has"][name][self._i] = value is not None

    def _parts(self, *names):
        return [self._block[name][self._i] for name in names]

    x = property(lambda self: self._parts("x")[0])
    noisy = property(lambda self: NoisyEvaluation(self._read("f_bar"),
                                                  *self._parts("g_bar", "c_bar", "J_bar")))
    exact = property(lambda self: ExactEvaluation(self._read("f"), *self._parts("g", "c", "J")))
    bundle = property(lambda self: None if self._read("test") is None else steps.StepBundle(
        *self._parts("v", "z", "resid"), *(self._read(f.name) for f in _BUNDLE)))
    counters_delta = property(lambda self: (self._read("function_evals"),
                                            self._read("gradient_evals")))


for _name in _FIELDS:
    setattr(IterRecord, _name, property(lambda self, name=_name: self._read(name),
                                        lambda self, value, name=_name: self._write(name, value)))


@dataclass(eq=False)
class RunTrace:
    """A run's settings, outcome and table: record k is row k % BEST_ITERATE_CHUNK of the
    `_row` array ``blocks[k // BEST_ITERATE_CHUNK]``.  A run adds blocks as it grows, so no
    written row is ever copied; `chunks` views each block's written rows and `records` the
    rows one by one, built on first read.  Traces and records compare by identity."""

    problem: str
    n: int
    m: int
    seed: int
    eps_o: float
    variant: str
    H: np.ndarray  # curvature matrix the solver used
    status: str | None = None
    counters: object = None
    minres_iters: int = 0  # every iteration's MINRES and CG steps, accepted or not
    cg_iters: int = 0
    adaptive_state: stepsize.AdaptiveState | None = None
    blocks: list = field(default_factory=list, repr=False)
    size: int = 0  # records written

    @functools.cached_property
    def records(self) -> list:
        return [IterRecord(self, k) for k in range(self.size)]

    def chunks(self) -> list:
        """Each block's written rows, as views."""
        return [block[:self.size - b * BEST_ITERATE_CHUNK] for b, block in enumerate(self.blocks)]

    def append(self, x, noisy, exact, bundle, counters_delta, **scalars):
        """Write one iteration into the next row, in a new block when the last is full."""
        b, i = divmod(self.size, BEST_ITERATE_CHUNK)
        if i == 0:
            self.blocks.append(np.empty(BEST_ITERATE_CHUNK, _row(self.n, self.m)))
        cells = [*map(scalars.get, _FIELDS), *counters_delta, noisy.f_bar, exact.f,
                 *(None if bundle is None else getattr(bundle, f.name) for f in _BUNDLE)]
        vectors = (0.0,) * 3 if bundle is None else (bundle.v, bundle.z, bundle.resid)
        self.blocks[b][i] = (*[0 if cell is None else cell for cell in cells], x, noisy.g_bar,
                             noisy.c_bar, noisy.J_bar, exact.g, exact.c, exact.J, *vectors,
                             tuple(cell is not None for cell in cells))
        self.size += 1

    @property
    def tau_history(self) -> list:
        """(-1, TAU0), then (k, tau) after each record's merit-parameter update."""
        return [(-1, merit.TAU0)] + [(r.k, r.tau) for r in self.records]


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
    noise = params.noise
    # the feasibility threshold: the constraint noise level when optimistic, else 0
    eps_o = noise.eps_c if params.optimism == "optimistic" else 0.0
    # numerical meaning of "||c|| <= eps_o" at eps_o = 0: the branch gate gets
    # an absolute floor so machine-precision-feasible iterates take the
    # tangential-only branch instead of the infeasible-stationary exit
    branch_gate = max(eps_o, TOL_FEAS)
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

    counters = oracle.counters
    trace = RunTrace(problem.name, n, problem.m, seed, eps_o, params.variant, H,
                     counters=counters,
                     adaptive_state=controller if params.variant == ADAPTIVE else None)
    x = problem.x0.copy()  # rebound every step, never mutated in place
    tau = merit.TAU0
    minres_iters = cg_iters = 0
    while status is None:
        if trace.size >= params.max_iters:
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
            bundle, taken = steps.tangential_step(H, lin, normal, tau, eps_o, coef,
                                                  feasible=feasible)
            minres_iters, cg_iters = minres_iters + taken, cg_iters + normal.cg_iters
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
                alpha, x_next, fields, status = controller.step(
                    x, noisy, bundle, d, tau, delta_l, dd)
        after = counters.snapshot()
        trace.append(x, noisy, exact, bundle, (after[0] - before[0], after[1] - before[1]),
                     tau_prev=tau_prev, tau=tau, alpha=alpha, branch=branch, delta_l=delta_l,
                     **fields)
        if status is not None:
            break
        x = x_next  # the line search's accepted trial: the oracle reuses its evaluation

    trace.status, trace.minres_iters, trace.cg_iters = status, minres_iters, cg_iters
    return trace

"""Exact problem definitions: interface, built-in registry, JSON quadratic format.

A problem is  min f(x)  s.t.  c(x) = 0  with analytic gradient and Jacobian.
The registry is a small self-contained suite (convex quadratics, circle
constraints, Rosenbrock-on-a-sphere, one built-in rank-deficient Jacobian)
standing in for an external test-set collection; every entry carries its
KKT point when that point is known in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import as_vector, kkt_matrix, smallest_singular_value


class ParseError(Exception):
    """Problem file rejected; message names the offending field."""


@dataclass(eq=False)
class ExactEvaluation:
    f: float
    g: np.ndarray
    c: np.ndarray
    J: np.ndarray


@dataclass
class ProblemSpec:
    """An exact equality-constrained problem with dimensions and start point.

    ``eval_fn`` maps x to ExactEvaluation.  ``known_kkt`` is an optional
    (x_star, y_star) pair used by tests.  ``shared_noise_rows`` marks
    constraint rows that must receive identical noise draws (set by
    `duplicate_last_constraint`); ``full_rank`` tags whether the exact
    Jacobian has full row rank at the start point.
    """

    name: str
    n: int
    m: int
    x0: np.ndarray
    eval_fn: object
    known_kkt: tuple | None = None
    full_rank: bool = True
    shared_noise_rows: tuple = field(default_factory=tuple)
    H: np.ndarray | None = None  # preferred curvature matrix; identity when None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        self.x0 = as_vector(self.x0, "x0", self.n)


def evaluate(problem: ProblemSpec, x) -> ExactEvaluation:
    """Exact (f, g, c, J) at x.  No counters; counting lives in the noisy oracle."""
    x = as_vector(x, "x", problem.n)
    ev = problem.eval_fn(x)
    g = np.asarray(ev.g, dtype=float)
    c = np.asarray(ev.c, dtype=float).reshape(-1)
    J = np.asarray(ev.J, dtype=float).reshape(problem.m, problem.n)
    if g.size != problem.n or c.size != problem.m:
        raise ValueError("eval returned inconsistent dimensions")
    return ExactEvaluation(float(ev.f), g, c, J)


def duplicate_last_constraint(problem: ProblemSpec) -> ProblemSpec:
    """Append a copy of the last constraint; feasible region is unchanged.

    The new row shares its noise draw with the row it copies, matching the
    protocol of duplicating the constraint after noise is added.
    """
    inner = problem.eval_fn

    def eval_dup(x):
        ev = inner(x)
        c = np.atleast_1d(np.asarray(ev.c, dtype=float))
        J = np.asarray(ev.J, dtype=float).reshape(problem.m, problem.n)
        c2 = np.concatenate([c, c[-1:]])
        J2 = np.concatenate((J, J[-1:]))
        return ExactEvaluation(ev.f, ev.g, c2, J2)

    shared = problem.shared_noise_rows + ((problem.m - 1, problem.m),)
    return replace(problem, name=problem.name + "+dup", m=problem.m + 1, eval_fn=eval_dup,
                   known_kkt=None, full_rank=False, shared_noise_rows=shared)


def parse_problem_json(text) -> ProblemSpec:
    """Parse the on-disk quadratic problem format (extension ``.qp.json``).

    Fields: name and Q (n x n), q (n), A (m x n), b (m), x0 (n) of finite JSON
    numbers, defining f = 1/2 x'Qx + q'x and c = Ax - b.  Q is symmetrized as (Q + Q')/2.
    """
    try:
        data = json.loads(text, parse_int=float)  # an integer past the doubles reads as inf
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:  # json.loads decodes bytes as UTF-8, -16 or -32
        raise ParseError(f"not {exc.encoding} text: {exc.reason} at byte {exc.start}") from exc
    if not isinstance(data, dict):
        raise ParseError("a problem file must be a JSON object")
    for fieldname in ("name", "Q", "q", "A", "b", "x0"):
        if fieldname not in data:
            raise ParseError(f"missing field '{fieldname}'")
    name = str(data["name"])
    arrays = {}
    for key in ("Q", "q", "A", "b", "x0"):
        try:
            arrays[key] = value = np.asarray(data[key], dtype=float)
            # numpy also reads a numeric string and a bool as a number; JSON does not
            reason = next((f"{json.dumps(e)} is not a number"
                           for e in np.asarray(data[key], dtype=object).flat
                           if type(e) is not float), None)
        except (TypeError, ValueError) as exc:
            reason = exc
        if reason is not None:
            raise ParseError(f"non-numeric entry in '{key}': {reason}")
        if not np.isfinite(value).all():  # json.loads reads NaN and Infinity
            raise ParseError(f"non-finite entry in '{key}'")
    Q, q, A, b, x0 = arrays.values()
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ParseError(f"Q must be square, got {Q.shape}")
    n = Q.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ParseError(f"A must be m x {n}, got {A.shape}")
    for key, size in (("q", n), ("b", A.shape[0]), ("x0", n)):
        if arrays[key].shape != (size,):
            raise ParseError(f"{key} must have length {size}, got {arrays[key].shape}")
    Qs = 0.5 * (Q + Q.T)
    return _quadratic(name, Qs, q, A, b, x0)


def _quadratic(name, Q, q, A, b, x0):
    n = Q.shape[0]
    m = A.shape[0]

    def ev(x):
        return ExactEvaluation(
            f=0.5 * float(x.dot(Q).dot(x)) + float(q.dot(x)),
            g=Q.dot(x) + q,
            c=A.dot(x) - b,
            J=A,
        )

    # equality-constrained QP: KKT point from one dense solve
    try:
        z = np.linalg.solve(kkt_matrix(Q, A), np.concatenate([-q, b]))
        known_kkt = (z[:n], z[n:])
    except np.linalg.LinAlgError:
        known_kkt = None
    full_rank = smallest_singular_value(A) > 1e-8
    return ProblemSpec(name, n, m, x0, ev, known_kkt=known_kkt, full_rank=full_rank)


def _circle(name, a, r2, x0, x_star, y_star):
    # min a'x on the circle ||x||^2 = r2; a is a pair of floats
    def ev(x):
        return ExactEvaluation(
            f=a[0] * x[0] + a[1] * x[1],
            g=np.array(a),
            c=np.array([x[0] ** 2 + x[1] ** 2 - r2]),
            J=np.array([[2.0 * x[0], 2.0 * x[1]]]),
        )

    return ProblemSpec(name, 2, 1, np.array(x0), ev,
                       known_kkt=(np.array(x_star), np.array(y_star)))


def _parabola_ridge(name):
    # classic (1 - x1)^2 objective pinned to the parabola x2 = x1^2
    def ev(x):
        return ExactEvaluation(
            f=(1.0 - x[0]) ** 2,
            g=np.array([-2.0 * (1.0 - x[0]), 0.0]),
            c=np.array([10.0 * (x[1] - x[0] ** 2)]),
            J=np.array([[-20.0 * x[0], 10.0]]),
        )

    return ProblemSpec(
        name, 2, 1, np.array([-1.2, 1.0]), ev,
        known_kkt=(np.array([1.0, 1.0]), np.array([0.0])),
    )


def _log_surface(name):
    # min log(1 + x1^2) - x2 on the quartic surface (1 + x1^2)^2 + x2^2 = 4
    def ev(x):
        t = 1.0 + x[0] ** 2
        return ExactEvaluation(
            f=np.log(t) - x[1],
            g=np.array([2.0 * x[0] / t, -1.0]),
            c=np.array([t ** 2 + x[1] ** 2 - 4.0]),
            J=np.array([[4.0 * x[0] * t, 2.0 * x[1]]]),
        )

    s3 = np.sqrt(3.0)
    return ProblemSpec(
        name, 2, 1, np.array([2.0, 2.0]), ev,
        known_kkt=(np.array([0.0, s3]), np.array([1.0 / (2.0 * s3)])),
    )


def _rosenbrock_sphere(n, name, x0):
    radius2 = float(n)

    def ev(x):
        d = x.size
        f = 0.0
        g = np.zeros(d)
        for i in range(d - 1):
            f += (1.0 - x[i]) ** 2 + 100.0 * (x[i + 1] - x[i] ** 2) ** 2
            g[i] += -2.0 * (1.0 - x[i]) - 400.0 * x[i] * (x[i + 1] - x[i] ** 2)
            g[i + 1] += 200.0 * (x[i + 1] - x[i] ** 2)
        return ExactEvaluation(
            f=f,
            g=g,
            c=np.array([float(x @ x) - radius2]),
            J=(2.0 * x).reshape(1, -1),
        )

    x0 = np.asarray(x0, dtype=float)
    # Gauss-Newton curvature at the start point; positive definite for the
    # chain, so it satisfies the null-space curvature requirement
    H = np.zeros((n, n))
    for i in range(n - 1):
        H[i, i] += 2.0
        J_row = np.zeros(n)
        J_row[i] = -20.0 * x0[i]
        J_row[i + 1] = 10.0
        H += 2.0 * np.outer(J_row, J_row)
    return ProblemSpec(
        name, n, 1, x0, ev,
        known_kkt=(np.ones(n), np.array([0.0])),
        H=H,
    )


def _sphere_dup(name):
    # built-in rank-deficient Jacobian: two identical sphere constraints
    def ev(x):
        row = (2.0 * x).reshape(1, -1)
        cval = float(x @ x) - 1.0
        return ExactEvaluation(
            f=x[0] + x[1] + x[2],
            g=np.ones(3),
            c=np.array([cval, cval]),
            J=np.vstack([row, row]),
        )

    s = 1.0 / np.sqrt(3.0)
    y = np.sqrt(3.0) / 4.0
    return ProblemSpec(
        name, 3, 2, np.array([0.9, 0.3, 0.3]), ev,
        known_kkt=(np.array([-s, -s, -s]), np.array([y, y])),
        full_rank=False,
        shared_noise_rows=((0, 1),),
    )


def _quad_linear(name):
    A = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 2.0]])
    return _quadratic(name, np.eye(4), np.zeros(4), A, np.zeros(2),
                      np.array([1.0, 1.0, 1.0, 1.0]))


def _quad_ellipse(name):
    Q = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    q = np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0])
    A = np.array([
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
    ])
    return _quadratic(name, Q, q, A, np.array([3.0, 0.0]),
                      np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5]))


def _quad_linear_10(name):
    a = np.linspace(-1.0, 1.0, 10)
    A = np.zeros((3, 10))
    A[0, :4] = 1.0
    A[1, 3:7] = np.array([1.0, -1.0, 1.0, -1.0])
    A[2, 6:] = np.array([0.5, 1.0, 1.5, 2.0])
    return _quadratic(name, np.eye(10), -a, A, np.array([1.0, 0.0, 2.0]), np.zeros(10))


# the built-in desk-scale suite in registry order: name -> builder(name); every
# build makes fresh arrays, so a caller may mutate what it gets
_BUILTINS = {
    "quad-linear": _quad_linear,
    "quad-ellipse": _quad_ellipse,
    "quad-linear-10": _quad_linear_10,
    "unit-circle": lambda name: _circle(name, (1.0, 1.0), 1.0, [0.9, -0.3],
                                        [-np.sqrt(0.5)] * 2, [np.sqrt(0.5)]),
    "circle-shifted": lambda name: _circle(name, (2.0, -1.0), 4.0, [2.0, 0.5],
                                           [-4.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0)],
                                           [np.sqrt(5.0) / 4.0]),
    "parabola-ridge": _parabola_ridge,
    "log-surface": _log_surface,
    "rosenbrock-sphere": lambda name: _rosenbrock_sphere(2, name, [1.2, 0.8]),
    "rosenbrock-sphere-4": lambda name: _rosenbrock_sphere(4, name, [0.9, 1.1, 0.9, 1.1]),
    "sphere-dup": _sphere_dup,
}


def builtin_registry() -> list[ProblemSpec]:
    """The built-in desk-scale suite; >= 8 problems, 2 <= n <= 10, 1 <= m < n."""
    return [build(name) for name, build in _BUILTINS.items()]


def get_problem(name: str) -> ProblemSpec:
    """Build one registry problem by name, or load a ``.qp.json`` file path."""
    build = _BUILTINS.get(name)
    if build is not None:
        return build(name)
    if name.endswith(".qp.json"):
        with open(name, "rb") as fh:
            return parse_problem_json(fh.read())
    raise KeyError(f"unknown problem {name!r}")

"""Byte-identity guard for the solver's hot path.

The per-iteration kernels (MINRES, trust-region CG, the termination tests,
the best-iterate selection) are written for speed, but every rewrite must
keep each floating-point operation and its order.  These runs pin two
digests recorded before the hot path was slimmed: one over the grid CSV
rows, one over every iterate, step size, merit parameter, accepting test
and step vector.  A one-ulp change anywhere (say ``math.hypot`` for
``np.hypot`` in MINRES) changes them.  A third digest, recorded before the
exact snapshots were taken from the oracle's own evaluation, covers every
record's ground-truth ``f``, ``g``, ``c`` and ``J``.  A fourth, recorded
before the step-size controllers moved behind one ``step`` call, covers
each run's Lipschitz estimates and every record's controller fields and
counter deltas.

The runs cover both step-size controllers, optimistic and pessimistic
gates, exact and inexact solves, duplicated constraint rows, the built-in
rank-deficient ``sphere-dup``, a problem with its own curvature matrix
(``rosenbrock-sphere-4``), and zero-noise runs whose MINRES iterates never
pass the zero-width residual gate, so the dense ``exact_fallback`` takes
over at every step.
"""

import hashlib

import numpy as np
import pytest

from noisy_sqp import harness
from noisy_sqp.harness import VariantSpec, records_to_csv, run_single

# (problem, scheme, optimism, exactness, eps_f = eps_c, licq_mode, seed)
RUNS = [
    ("unit-circle", "ada", "opt", "inexact", 1e-2, "original", 0),
    ("unit-circle", "ls", "pes", "inexact", 1e-4, "duplicated", 1),
    ("quad-ellipse", "ada", "pes", "inexact", 1e-2, "duplicated", 2),
    ("quad-ellipse", "ls", "opt", "exact", 1e-4, "original", 3),
    ("rosenbrock-sphere-4", "ada", "pes", "inexact", 1e-4, "original", 4),
    ("rosenbrock-sphere-4", "ls", "opt", "inexact", 1e-2, "duplicated", 5),
    ("sphere-dup", "ada", "opt", "inexact", 1e-2, "original", 6),
    ("sphere-dup", "ls", "pes", "exact", 1e-4, "original", 7),
    ("quad-linear-10", "ada", "pes", "exact", 1e-2, "duplicated", 8),
    ("quad-linear", "ls", "opt", "inexact", 1e-2, "original", 9),
    ("unit-circle", "ada", "opt", "inexact", 0.0, "original", 10),
    ("quad-ellipse", "ls", "pes", "inexact", 0.0, "duplicated", 11),
]
BUDGETS = (150, 10000)

CSV_SHA256 = "47b89e3a8cebe48ea0edb3aa32dc328ef32698a179f9ea3f10a4f0497c64f0b5"
TRACE_SHA256 = "80b9ec25b6b501012231e4c9dec7c328b8efc24d8d605fdbceba1ae59bdad732"
EXACT_SHA256 = "30e10b810f39bde60acacb987f1caf9cb600e276b9a9b3ff03f2c9d15a1e0e2a"
CONTROLLER_SHA256 = "a3c1448ee496c2c940370b72ea380ff2040ec8e24b864aa8c0a30de55e8f1166"


def _feed(h, value):
    if value is None:
        h.update(b"-")
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        h.update(repr(value).encode())
    h.update(b"|")


def trace_digest(trace, h):
    _feed(h, trace.status)
    for rec in trace.records:
        for value in (rec.k, rec.x, rec.alpha, rec.tau_prev, rec.tau, rec.branch,
                      rec.delta_l):
            _feed(h, value)
        b = rec.bundle
        if b is not None:
            for value in (b.test, b.fallback_case, b.minres_iters, b.cg_iters,
                          b.v, b.u, b.d, b.y, b.rho, b.r):
                _feed(h, value)


def exact_digest(trace, h):
    for rec in trace.records:
        ex = rec.exact
        for value in (ex.f, ex.g, ex.c, ex.J):
            _feed(h, value)


def controller_digest(trace, h):
    state = trace.adaptive_state
    for value in (None, None) if state is None else (state.L_est, state.Gamma_est):
        _feed(h, value)
    for rec in trace.records:
        for value in (rec.chi, rec.zeta, rec.xi, rec.alpha_suff, rec.alpha_min,
                      rec.alpha_max, rec.phi0, rec.phi_accept, rec.relax,
                      rec.backtracks, rec.counters_delta):
            _feed(h, value)


@pytest.fixture(scope="module")
def runs():
    """The run records and, kept from ``harness.solve``, their traces."""
    traces = []
    solve = harness.solve

    def keep(*args, **kwargs):
        trace = solve(*args, **kwargs)
        traces.append(trace)
        return trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "solve", keep)
        records = [run_single(problem, VariantSpec(scheme, optimism, exactness), eps, eps,
                              seed, licq, BUDGETS)
                   for problem, scheme, optimism, exactness, eps, licq, seed in RUNS]
    return records, traces


def test_runs_cover_the_hot_path(runs):
    _, traces = runs
    tags = {rec.bundle.fallback_case or rec.bundle.test
            for t in traces for rec in t.records if rec.bundle is not None}
    fallbacks = sum(rec.bundle.test == "exact_fallback"
                    for t in traces for rec in t.records if rec.bundle is not None)
    assert {"TT1", "TT2_case2", "TT2_cond1"} <= tags
    assert fallbacks > 0
    assert {t.variant for t in traces} == {"adaptive", "line_search"}


def test_csv_and_traces_are_byte_identical(runs):
    records, traces = runs
    csv_sha = hashlib.sha256(records_to_csv(records).encode()).hexdigest()
    h = hashlib.sha256()
    for trace in traces:
        trace_digest(trace, h)
    assert (csv_sha, h.hexdigest()) == (CSV_SHA256, TRACE_SHA256)


def test_exact_snapshots_are_byte_identical(runs):
    _, traces = runs
    h = hashlib.sha256()
    for trace in traces:
        exact_digest(trace, h)
    assert h.hexdigest() == EXACT_SHA256


def test_controller_fields_are_byte_identical(runs):
    _, traces = runs
    h = hashlib.sha256()
    for trace in traces:
        controller_digest(trace, h)
    assert h.hexdigest() == CONTROLLER_SHA256

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

The digests are bits of one BLAS kernel: a 1-D dot product or a transposed
matvec rounds differently under OpenBLAS's SkylakeX, Haswell and Prescott
kernels, so each kernel has its own digest set, keyed by
``blas_fingerprint()``.  A kernel with no set fails.  To record its set, run
``PYTHONPATH=src python tests/test_hot_path_identity.py`` on a tree whose
results are known to be right (the merge base of a change) and add the
printed line to ``DIGESTS``; ``OPENBLAS_CORETYPE`` selects the kernel.
"""

import ctypes
import glob
import hashlib
import os

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

# the four digests per BLAS kernel, keyed by blas_fingerprint(); the SkylakeX
# set was recorded before the hot path was slimmed, the others from the same
# code under OPENBLAS_CORETYPE=Haswell and =Prescott
DIGESTS = {
    "5a30d829e2a0181a": {"kernel": "SkylakeX",
          "csv": "47b89e3a8cebe48ea0edb3aa32dc328ef32698a179f9ea3f10a4f0497c64f0b5",
          "trace": "80b9ec25b6b501012231e4c9dec7c328b8efc24d8d605fdbceba1ae59bdad732",
          "exact": "30e10b810f39bde60acacb987f1caf9cb600e276b9a9b3ff03f2c9d15a1e0e2a",
          "controller": "a3c1448ee496c2c940370b72ea380ff2040ec8e24b864aa8c0a30de55e8f1166"},
    "c2be0c72a829e837": {"kernel": "Haswell",  # also what OPENBLAS_CORETYPE=Zen runs
          "csv": "13b1eb04484c7bda6bda52972830a785305320eb092b38fe1f026e8b0f26cf12",
          "trace": "00a56bf6d6b7cb209b8b3c052a62303fd4ac1acd526ad62cb6dcdca69cc7ae64",
          "exact": "810cb270c33caede24518fb1fe112dc7563ea1f181c652942748dc4d7a32e613",
          "controller": "be7049124b32f11f1b13f614e017ada0c069675f51758abdbb79f01a38d21e3a"},
    "47628c2a7fb7cdca": {"kernel": "Katmai",  # what OPENBLAS_CORETYPE=Prescott runs
          "csv": "9be94f84425b8912309aa2a1f90c9fff0764d0d856ca53b199e3920e1628ac44",
          "trace": "f61c7b9d4856201d8bf383e441c82d826c69ec47ab79b6bebee1cf37612e660e",
          "exact": "41f9cd9328d19ea424f08109140a11a9d68e14ccfa066f16a85ffd81e0d0d0ca",
          "controller": "55861685a97ac980f3f792a5be4817d25922b7af0d69c666f3e70010e484157a"},
}


def blas_fingerprint() -> str:
    """The bits of fixed 1-D dot products and transposed matvecs, n = 2 to 20:
    they round differently under each BLAS kernel."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for n in (2, 3, 5, 10, 20):
        a, M = rng.standard_normal(n), rng.standard_normal((n, n))
        h.update(a.dot(M[0]).tobytes())
        h.update(M.T.dot(a).tobytes())
    return h.hexdigest()[:16]


def blas_kernel() -> str:
    """OpenBLAS's name for the kernel it runs, read from the library bundled
    with numpy; "unnamed" where that library or its symbol is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unnamed"


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


def solve_runs():
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


def digest_set(records, traces) -> dict:
    """The four digests of the runs."""
    hashes = {name: hashlib.sha256() for name in ("trace", "exact", "controller")}
    for trace in traces:
        trace_digest(trace, hashes["trace"])
        exact_digest(trace, hashes["exact"])
        controller_digest(trace, hashes["controller"])
    return {"csv": hashlib.sha256(records_to_csv(records).encode()).hexdigest(),
            **{name: h.hexdigest() for name, h in hashes.items()}}


@pytest.fixture(scope="module")
def runs():
    return solve_runs()


@pytest.fixture(scope="module")
def digests(runs):
    return digest_set(*runs)


def pinned(name: str) -> str:
    """The digest ``name`` recorded for this BLAS kernel; fails for a kernel with none."""
    fingerprint = blas_fingerprint()
    if fingerprint not in DIGESTS:
        pytest.fail(f"no digest set for BLAS kernel {blas_kernel()} (fingerprint "
                    f"{fingerprint}); record one with `PYTHONPATH=src python "
                    f"tests/test_hot_path_identity.py` on the merge base and add it to DIGESTS")
    return DIGESTS[fingerprint][name]


def test_runs_cover_the_hot_path(runs):
    _, traces = runs
    tags = {rec.bundle.fallback_case or rec.bundle.test
            for t in traces for rec in t.records if rec.bundle is not None}
    fallbacks = sum(rec.bundle.test == "exact_fallback"
                    for t in traces for rec in t.records if rec.bundle is not None)
    assert {"TT1", "TT2_case2", "TT2_cond1"} <= tags
    assert fallbacks > 0
    assert {t.variant for t in traces} == {"adaptive", "line_search"}


def test_csv_and_traces_are_byte_identical(digests):
    assert (digests["csv"], digests["trace"]) == (pinned("csv"), pinned("trace"))


def test_exact_snapshots_are_byte_identical(digests):
    assert digests["exact"] == pinned("exact")


def test_controller_fields_are_byte_identical(digests):
    assert digests["controller"] == pinned("controller")


if __name__ == "__main__":  # print this kernel's line for DIGESTS
    print(f'    "{blas_fingerprint()}": {{"kernel": "{blas_kernel()}", '
          + ", ".join(f'"{k}": "{v}"' for k, v in digest_set(*solve_runs()).items()) + "},")

"""Mutation score of the solver's rules: which named mutants the tier-1 tests kill.

    python tests/mutants.py [--out FILE] [NAME ...]

Each mutant replaces one piece of source text, which must occur exactly once
in its file, in a temporary copy of the working tree.  The tier-1 tests then
run in that copy without `tests/test_hot_path_identity.py`, whose pinned
digests fail on any change to a hot-path value and so score bits, not
behaviour.  The unmutated copy runs first; a failure there stops the script,
since a kill means nothing when the tests already fail.

A kill that comes only from `test_hostile_problem_ends_in_a_status_without_a_warning`
is reported apart: hypothesis draws part of that test's numbers from the
numeric literals of the loaded non-test modules, so a mutated literal re-draws
its examples, and a failure there may come from the new draw rather than the
mutant.  Mutants run one after another, about a minute each on 2 CPUs, so the
script stays out of CI; pytest does not collect it.  The JSON report (stdout,
or ``--out``) lists each mutant's outcome and the tests that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOSTILE = "tests.test_driver::test_hostile_problem_ends_in_a_status_without_a_warning"
NOT_COPIED = (".git", ".hypothesis", ".perfbench", ".benchmarks", ".pytest_cache",
             "__pycache__", "*.pyc", "*.egg-info")

# ``note`` names the test meant to kill the mutant, or argues why none can
Mutant = namedtuple("Mutant", "name path old new note")

MUTANTS = [
    Mutant("tt1-curvature-2eps", "src/noisy_sqp/steps.py",
           "uHu < LAMBDA_U * uu - eps_o - slack", "uHu < LAMBDA_U * uu - 2 * eps_o - slack",
           "tests/test_steps.py::TestCheckTT1::test_negative_curvature_rejected"),
    Mutant("tt1-objective-2eps", "src/noisy_sqp/steps.py",
           "gd + 0.5 * uHu > eps_o + slack", "gd + 0.5 * uHu > 2 * eps_o + slack",
           "tests/test_steps.py::TestCheckTT1::test_objective_model_excess_beyond_eps_o_is_rejected"),
    Mutant("tt2-slope-weight-half", "src/noisy_sqp/steps.py",
           "weight = max(0.5, 1.0 - lin.Jtc_norm)", "weight = 0.5",
           "tests/test_steps.py::TestCheckTT2::test_dominant_slope_weighs_curvature_by_one_minus_jtc_norm"),
    Mutant("tt2-lambda-uv-x10", "src/noisy_sqp/steps.py",
           "if u_nrm > LAMBDA_UV * v_nrm:", "if u_nrm > 10 * LAMBDA_UV * v_nrm:",
           "tests/test_steps.py::TestCheckTT2::test_dominant_tangential_step_needs_curvature_and_descent"),
    Mutant("gate-lower-clip-1e-1", "src/noisy_sqp/steps.py",
           "lin.Jtc_inf), 1e2), 1e-2)", "lin.Jtc_inf), 1e2), 1e-1)",
           "tests/test_steps.py::TestTangentialStep::test_accepted_candidate_meets_the_gate_at_its_lower_clip"),
    Mutant("infeasible-exit-1e-2", "src/noisy_sqp/driver.py",
           "1e-3 * norm2(lin.J) * lin.c_norm", "1e-2 * norm2(lin.J) * lin.c_norm",
           "tests/test_driver.py::TestEarlyInfeasibleExit::test_well_conditioned_jacobian_never_takes_the_exit"),
    Mutant("best-iterate-gate-3", "src/noisy_sqp/harness.py",
           "feas <= 2.0 * max(eps_c, eps_f)", "feas <= 3.0 * max(eps_c, eps_f)",
           "tests/test_metamorphic.py::test_optimism_solves_as_many_for_a_fraction_of_the_evaluations"),
    Mutant("exact-g-from-noisy-row", "src/noisy_sqp/driver.py",
           "ExactEvaluation(self._f, *self._parts(4, 7))",
           "ExactEvaluation(self._f, *self._parts(1, 2), *self._parts(5, 7))",
           "tests/test_driver.py::TestExactSnapshots::test_default_oracle_snapshot_equals_fresh_evaluation"),
    Mutant("audit-first-failure-only", "src/noisy_sqp/verify.py",
           "found += _bundle_conditions(r, trace.eps_o, trace.H)",
           "found += (lambda cs: cs[:1 + next((i for i, c in enumerate(cs) if not c.held), "
           "len(cs))])(_bundle_conditions(r, trace.eps_o, trace.H))",
           "tests/test_verify.py::TestTraceCorruption::test_a_record_breaking_two_conditions_lists_both"),
    Mutant("problem-file-takes-bools", "src/noisy_sqp/problems.py",
           "if type(e) not in (int, float)", "if type(e) not in (int, float, bool)",
           "tests/test_cli.py::test_malformed_problem_file_is_input_error[bool-in-b-solve]"),
    Mutant("rho-strictly-below", "src/noisy_sqp/harness.py",
           'np.searchsorted(ratios, tau, side="right")', 'np.searchsorted(ratios, tau, side="left")',
           "tests/test_harness.py::TestPerformanceProfile::test_rho_counts_ties_and_inf_ratios"),
]


def run_tier1(tree: Path):
    """Tier-1 in ``tree`` without the digest file: (pytest's exit code, failed test ids)."""
    report = tree / "junit.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_hot_path_identity.py",
           f"--junitxml={report}"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    code = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    failed = []
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                failed.append(f"{case.get('classname')}::{case.get('name')}")
    return code, failed


def run_copy(mutant: Mutant | None):
    """Apply ``mutant`` (None: no change) to a fresh copy of the tree and run tier-1 there."""
    tmp = Path(tempfile.mkdtemp(prefix="noisy-sqp-mutant-"))
    try:
        tree = tmp / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*NOT_COPIED))
        if mutant is not None:
            path = tree / mutant.path
            source = path.read_text()
            if source.count(mutant.old) != 1:
                raise SystemExit(f"mutant {mutant.name}: {mutant.old!r} does not occur "
                                 f"exactly once in {mutant.path}")
            path.write_text(source.replace(mutant.old, mutant.new))
        return run_tier1(tree)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def outcome(code: int, failed: list[str]) -> str:
    if code not in (0, 1):
        return f"error (pytest exit code {code})"
    if not failed:
        return "survived"
    return "killed by the hostile test only" if failed == [HOSTILE] else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    chosen = [known[name] for name in args.names] or MUTANTS

    code, failed = run_copy(None)
    if code != 0:
        raise SystemExit(f"tier-1 fails without a mutant (exit code {code}): {failed}")
    results = []
    for mutant in chosen:
        t0 = time.perf_counter()
        code, failed = run_copy(mutant)
        results.append({"name": mutant.name, "file": mutant.path, "old": mutant.old,
                        "new": mutant.new, "note": mutant.note,
                        "outcome": outcome(code, failed), "failed": failed,
                        "seconds": round(time.perf_counter() - t0, 1)})
        print(f"{mutant.name}: {results[-1]['outcome']} ({results[-1]['seconds']} s)",
              file=sys.stderr)
    score = {kind: sum(r["outcome"] == kind for r in results)
             for kind in ("killed", "killed by the hostile test only", "survived")}
    text = json.dumps({"mutants": results, "score": score, "total": len(results)}, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()

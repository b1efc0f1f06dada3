"""Every output a change must keep, one line each, for the noisy_sqp on PYTHONPATH.

    PYTHONPATH=src python tests/outputs.py

The lines are this BLAS kernel's entry for ``DIGESTS`` in
`test_hot_path_identity.py` (its four pinned digests, ready to paste), the
sha256 of the `noisy-sqp verify --suite all` JSON, of the results.csv that
`test_acceptance.py`'s criterion-2 and criterion-8 grids write, of the four
TSVs that `noisy-sqp profile --cost evals` and `--cost minres` write for the
criterion-2 CSV, and the numeric literals hypothesis harvests from
src/noisy_sqp.  Two trees keep every output when the script prints the same
lines on both (about 20 s each on a 2-vCPU VM), run from the repository root:

    PYTHONPATH=src python tests/outputs.py > change.txt
    PYTHONPATH=/path/to/base/src python tests/outputs.py > base.txt
    diff -u base.txt change.txt

The criterion grids' own pass or fail is the tests' to report; their CSVs
are hashed either way.
"""

import ast
import contextlib
import dataclasses
import hashlib
import importlib
import io
import pkgutil
import tempfile
import tokenize
from pathlib import Path

import noisy_sqp
from noisy_sqp import NoiseSpec, SolverParams, cli

import test_acceptance
import test_hot_path_identity as identity


def digests() -> str:
    """This kernel's line for ``DIGESTS``."""
    fields = identity.digest_set(*identity.solve_runs())
    return (f'    "{identity.blas_fingerprint()}": {{"kernel": "{identity.blas_kernel()}", '
            + ", ".join(f'"{k}": "{v}"' for k, v in fields.items()) + "},")


def literals() -> str:
    """The count and sha256 of the numeric literals hypothesis harvests from
    src/noisy_sqp: part of `test_hostile_problem_ends_in_a_status_without_a_warning`'s
    numbers are drawn from them, so a change of the set re-draws its examples."""
    try:
        from hypothesis.internal.constants_ast import constants_from_module
    except ImportError:
        return "harvested literals: not computed"
    ints, floats = set(), set()
    modules = [noisy_sqp] + [importlib.import_module(f"noisy_sqp.{info.name}")
                             for info in pkgutil.iter_modules(noisy_sqp.__path__)]
    for module in modules:
        constants = constants_from_module(module)
        ints |= constants.integers
        floats |= constants.floats
    digest = hashlib.sha256(repr((sorted(ints), sorted(floats))).encode()).hexdigest()
    return f"harvested literals: {len(ints)} ints, {len(floats)} floats, sha256 {digest}"


def code_lines() -> int:
    """The code lines of src/noisy_sqp, the figure the roadmap tracks: the non-blank lines
    of its modules that hold a token other than a comment, the lines of module, class and
    function docstrings not counted."""
    blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    total = 0
    for path in Path(noisy_sqp.__file__).parent.glob("*.py"):
        text = path.read_text()
        docs = set()  # the lines of module, class and function docstrings
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in blank:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docs)
    return total


def settings() -> int:
    """The settable solver values, the figure the roadmap tracks: the fields of
    `SolverParams` other than ``noise``, and those of `NoiseSpec`."""
    solver = [f for f in dataclasses.fields(SolverParams) if f.name != "noise"]
    return len(solver) + len(dataclasses.fields(NoiseSpec))


def files(work: Path) -> list:
    """(name, path) of every file the outputs hash, written under ``work``."""
    written = [("verify --suite all JSON", work / "verify.json")]
    with contextlib.redirect_stdout(io.StringIO()):  # the commands' and tests' report lines
        cli.main(["verify", "--suite", "all", "--out", str(written[0][1])])
        for criterion in (test_acceptance.test_criterion_2_noise_scaled_success,
                          test_acceptance.test_criterion_8_rank_deficient_progress):
            out = work / criterion.__name__
            out.mkdir()
            with contextlib.suppress(AssertionError):
                criterion(out)
            written.append((f"{criterion.__name__} results.csv", out / "results.csv"))
        for cost in ("evals", "minres"):
            tsv = work / f"profile-{cost}.tsv"
            cli.main(["profile", "--cost", cost, "--in", str(written[1][1]), "--out", str(tsv)])
            written += [(f"profile --cost {cost} curves", tsv),
                        (f"profile --cost {cost} costs", tsv.with_suffix(".costs.tsv"))]
    return written


def main():
    print(digests())
    with tempfile.TemporaryDirectory(prefix="noisy-sqp-outputs-") as work:
        for name, path in files(Path(work)):
            print(f"{name}: sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")
    print(literals())


if __name__ == "__main__":
    main()

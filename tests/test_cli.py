import json
import math

import numpy as np
import pytest

from noisy_sqp import verify
from noisy_sqp.cli import main
from noisy_sqp.harness import VariantSpec, run_single
from noisy_sqp.problems import builtin_registry
from test_driver import BIG_ROWS


def test_solve_subcommand(capsys):
    code = main([
        "solve", "--problem", "unit-circle", "--variant", "ada",
        "--optimism", "opt", "--eps-f", "1e-2", "--eps-c", "1e-2",
        "--seed", "0", "--max-iters", "60",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "status" in out and "solved" in out


def test_solve_accepts_qp_json_path(tmp_path, capsys):
    path = tmp_path / "toy.qp.json"
    path.write_text(json.dumps({
        "name": "toy", "Q": [[1, 0], [0, 1]], "q": [0, 0],
        "A": [[1, 1]], "b": [1], "x0": [0, 0],
    }))
    code = main([
        "solve", "--problem", str(path), "--variant", "ls",
        "--optimism", "pes", "--eps-f", "1e-2", "--eps-c", "1e-2",
        "--seed", "1", "--exact", "--max-iters", "40",
    ])
    assert code == 0


def test_grid_and_profile_pipeline(tmp_path, capsys):
    config = {
        "problems": ["quad-linear", "unit-circle"],
        "noise_grid": [[1e-2, 1e-2]],
        "variants": [
            {"scheme": "ada", "optimism": "opt"},
            {"scheme": "ls", "optimism": "opt"},
        ],
        "seeds": [0, 1],
        "budgets": [60, 2000],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"

    code = main(["grid", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    csv_path = out_dir / "results.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith(
        "problem,variant,optimism,exactness,eps_f,eps_c,seed,licq_mode,status,"
        "iters,weighted_evals,minres_iters,cg_iters,best_feas_err,best_stat_err,"
        "best_infeas_stat_err,terminated_early")

    tsv_path = tmp_path / "profile.tsv"
    code = main(["profile", "--in", str(csv_path), "--cost", "evals",
                 "--out", str(tsv_path)])
    assert code == 0
    lines = tsv_path.read_text().splitlines()
    assert lines[0].split("\t")[0] == "tau"
    assert len(lines) > 2
    assert (tmp_path / "profile.costs.tsv").exists()

    code = main(["profile", "--in", str(csv_path), "--cost", "minres",
                 "--out", str(tsv_path)])
    assert code == 0


def test_grid_bad_config_is_io_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    code = main(["grid", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2


def test_grid_unknown_variant_is_config_error(tmp_path, capsys):
    config = {
        "problems": ["unit-circle"],
        "noise_grid": [[1e-2, 1e-2]],
        "variants": [{"scheme": "adaptive", "optimism": "optimistic"}],
        "seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code = main(["grid", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


SOLVE_ARGS = ["--variant", "ada", "--optimism", "opt", "--eps-f", "1e-2",
              "--eps-c", "1e-2", "--seed", "0"]


def one_error_line(capsys, kind):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{kind}: ")
    assert "Traceback" not in captured.err
    return lines[0]


def test_solve_unknown_problem_is_input_error(capsys):
    code = main(["solve", "--problem", "nope", *SOLVE_ARGS])
    assert code == 2
    assert one_error_line(capsys, "input error") == "input error: unknown problem 'nope'"


def test_solve_zero_iteration_budget_is_config_error(capsys):
    code = main(["solve", "--problem", "unit-circle", *SOLVE_ARGS, "--max-iters", "0"])
    assert code == 2
    assert "max_iters must be" in one_error_line(capsys, "config error")


def test_solve_noise_beyond_the_bound_is_config_error(capsys):
    # U(-eps, eps) has no finite range 2 eps above EPS_MAX = 8.99e307
    code = main(["solve", "--problem", "unit-circle", "--variant", "ada", "--optimism", "opt",
                 "--eps-f", "1e308", "--eps-c", "1e308", "--seed", "0"])
    assert code == 2
    assert one_error_line(capsys, "config error") == \
        "config error: eps_f must be a number in [0, 8.988465674311579e+307]"


def test_solve_negative_noise_is_config_error(capsys):
    code = main(["solve", "--problem", "unit-circle", "--variant", "ada", "--optimism", "opt",
                 "--eps-f", "-1", "--eps-c", "0.01", "--seed", "0"])
    assert code == 2
    assert one_error_line(capsys, "config error") == "config error: noise levels must be >= 0"


@pytest.mark.parametrize("scheme", ["ls", "ada"])
def test_overflowing_gram_matrix_ends_in_a_status(tmp_path, capsys, scheme):
    path = tmp_path / "big.qp.json"
    path.write_text(json.dumps(BIG_ROWS))
    record = run_single(str(path), VariantSpec(scheme, "pes"), 1e-2, 1e-2, 0, "original")
    assert (record.status, record.solved) == ("nonfinite_evaluation", False)
    assert math.isnan(record.best_stat_err)
    code = main(["solve", "--problem", str(path), "--variant", scheme, "--optimism", "pes",
                 "--eps-f", "1e-2", "--eps-c", "1e-2", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "status             nonfinite_evaluation" in captured.out
    assert "solved             False" in captured.out


GOOD_GRID = {"problems": ["unit-circle"], "noise_grid": [[1e-2, 1e-2]],
             "variants": [{"scheme": "ada", "optimism": "opt"}], "seeds": [0],
             "budgets": [20, 2000]}


@pytest.mark.parametrize("change, named", [
    ({"variants": [{"scheme": "ada", "optimism": "opt", "kapa": 1e-2}]}, "kapa"),
    ({"variants": [{"scheme": "ada", "optimism": "opt", "kappa": "abc"}]}, "kappa"),
    ({"noise_grid": 5}, "noise_grid"),
    ({"noise_grid": [["a", 0.01]]}, "noise grid"),
    ({"noise_grid": [[0.01]]}, "noise grid"),
    ({"noise_grid": [[1e308, 0.01]]}, "noise grid"),
    ({"seeds": [-1]}, "seeds"),
    ({"seeds": [0.5]}, "seeds"),
    ({"seeds": [True]}, "seeds"),
    ({"budgets": [20.5, 1000]}, "budgets"),
    ({"budgets": [True, 1000]}, "budgets"),
    ({"budgets": [20]}, "budgets"),
    ({"budget": [20, 2000], "licq": "duplicated"}, "budget"),
    ({"problems": "unit-circle"}, "problems"),
    ({"problems": [5]}, "problems"),
    ({"problems": [["unit-circle"]]}, "problems"),
    ({"variants": [5]}, "variants"),
    ({"variants": [{"scheme": "ada", "optimism": "opt", "kappa": True}]}, "kappa"),
    (lambda grid: [grid], "JSON object"),
    (lambda grid: {k: v for k, v in grid.items() if k != "problems"}, "'problems'"),
], ids=["misspelled-key", "kappa-string", "noise-grid-number", "noise-level-string",
        "noise-level-missing", "noise-level-1e308", "negative-seed", "fractional-seed",
        "bool-seed", "fractional-budget", "bool-budget", "one-budget", "unknown-top-level-keys",
        "string-problems", "number-problem", "list-problem", "number-variant",
        "bool-kappa", "list-config", "missing-problems"])
def test_malformed_grid_config_is_config_error(tmp_path, capsys, change, named):
    # a change is merged into GOOD_GRID, or maps it to the whole config
    config = change(GOOD_GRID) if callable(change) else {**GOOD_GRID, **change}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["grid", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert named in one_error_line(capsys, "config error")
    assert not (out / "results.csv").exists()


# a two-variable problem file, and the malformed ones with the error each must give
TOY = {"name": "toy", "Q": [[1, 0], [0, 1]], "q": [0, 0], "A": [[1, 1]], "b": [1], "x0": [0, 0]}
MALFORMED_PROBLEMS = {
    "missing-q": ({k: v for k, v in TOY.items() if k != "q"}, "missing field 'q'"),
    "A-1x3": ({**TOY, "A": [[1, 1, 0]]}, "A must be m x 2, got (1, 3)"),
    "Q-2x3": ({**TOY, "Q": [[1, 0, 0], [0, 1, 0]]}, "Q must be square, got (2, 3)"),
    "q-length-3": ({**TOY, "q": [0, 0, 0]}, "q must have length 2, got (3,)"),
    "b-length-2": ({**TOY, "b": [1, 2]}, "b must have length 1, got (2,)"),
    "x0-length-1": ({**TOY, "x0": [0]}, "x0 must have length 2, got (1,)"),
    "string-in-Q": ({**TOY, "Q": [[1, 0], ["one", 1]]},
                    "non-numeric entry in 'Q': could not convert string to float: 'one'"),
    "NaN-in-Q": ({**TOY, "Q": [[float("nan"), 0], [0, 1]]}, "non-finite entry in 'Q'"),
    "Infinity-in-A": ({**TOY, "A": [[float("inf"), 1]]}, "non-finite entry in 'A'"),
    "number": (5, "a problem file must be a JSON object"),
    "null": (None, "a problem file must be a JSON object"),
    "not-UTF-8": (b'{"name": "\xff"}', "not utf-8 text: invalid start byte at byte 10"),
    # numpy reads each of these as a number; a problem file takes JSON numbers only
    "numeric-string-in-q": ({**TOY, "q": ["0", 0]},
                            "non-numeric entry in 'q': \"0\" is not a number"),
    "bool-in-b": ({**TOY, "b": [True]}, "non-numeric entry in 'b': true is not a number"),
    "int-and-bool-in-x0": ({**TOY, "x0": [1, True]},
                           "non-numeric entry in 'x0': true is not a number"),
}


@pytest.mark.parametrize("command", ["solve", "grid"])
@pytest.mark.parametrize("name", list(MALFORMED_PROBLEMS))
def test_malformed_problem_file_is_input_error(tmp_path, capsys, command, name):
    problem, message = MALFORMED_PROBLEMS[name]
    path = tmp_path / "bad.qp.json"
    # bytes as given; json writes NaN and Infinity as such
    path.write_bytes(problem if isinstance(problem, bytes) else json.dumps(problem).encode())
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", "--problem", str(path), *SOLVE_ARGS]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**GOOD_GRID, "problems": [str(path)]}))
        argv = ["grid", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 2
    assert one_error_line(capsys, "input error") == f"input error: {message}"
    assert not (out / "results.csv").exists()


def small_grid_csv(tmp_path, capsys, *schemes):
    """The results.csv of a 20-iteration unit-circle grid, one variant per scheme."""
    config = {
        "problems": ["unit-circle"],
        "noise_grid": [[1e-2, 1e-2]],
        "variants": [{"scheme": scheme, "optimism": "opt"} for scheme in schemes],
        "seeds": [0],
        "budgets": [20, 2000],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["grid", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return str(tmp_path / "results.csv")


def test_profile_of_one_variant_is_input_error(tmp_path, capsys):
    code = main(["profile", "--in", small_grid_csv(tmp_path, capsys, "ada"),
                 "--out", str(tmp_path / "profile.tsv")])
    assert code == 2
    assert "needs >= 2 solvers" in one_error_line(capsys, "input error")
    assert not (tmp_path / "profile.tsv").exists()


def test_profile_unwritable_out_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "p.tsv"
    code = main(["profile", "--in", small_grid_csv(tmp_path, capsys, "ada", "ls"),
                 "--out", str(out)])
    assert code == 2
    assert one_error_line(capsys, "config error") == \
        f"config error: [Errno 2] No such file or directory: '{out}'"


def test_verify_unwritable_out_is_config_error(tmp_path, capsys):
    # exit 2, not a failed check's 1
    out = tmp_path / "missing" / "v.json"
    assert main(["verify", "--suite", "fd", "--out", str(out)]) == 2
    assert one_error_line(capsys, "config error") == \
        f"config error: [Errno 2] No such file or directory: '{out}'"


def test_verify_subcommand(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    code = main(["verify", "--suite", "all", "--out", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace_invariant_sweep    pass" in out
    reports = json.loads(report_path.read_text())
    assert {r["check"] for r in reports} >= {
        "cauchy_perturbation_scan", "tangential_gap_scan", "trace_invariant_sweep"}
    assert all(r["pass"] for r in reports)


def test_verify_suite_runs_only_the_chosen_checks(capsys):
    code = main(["verify", "--suite", "fd"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines and all(line.startswith("fd_check ") for line in lines)


def test_main_turns_numpy_warnings_off_for_the_command_only(capsys, monkeypatch):
    states = []

    def fd_check(problem, x):
        states.append(np.geterr())
        return 0.0, 0.0

    monkeypatch.setattr(verify, "fd_check", fd_check)
    before = np.geterr()
    assert main(["verify", "--suite", "fd"]) == 0
    capsys.readouterr()
    assert states and all(set(state.values()) == {"ignore"} for state in states)
    assert np.geterr() == before


def test_verify_fd_report_holds_every_problem(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--suite", "fd", "--out", str(report_path)]) == 0
    capsys.readouterr()
    [report] = json.loads(report_path.read_text())
    assert report["check"] == "fd_check" and report["pass"]
    assert [o["problem"] for o in report["observations"]] == [
        p.name for p in builtin_registry()]
    for o in report["observations"]:
        assert o["pass"] and o["grad_err"] <= 1e-5 and o["jac_err"] <= 1e-5


def test_verify_all_reports_every_check_in_order(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--out", str(report_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"reports -> {report_path}"
    assert [r["check"] for r in json.loads(report_path.read_text())] == [
        "fd_check", "cauchy_perturbation_scan", "tangential_gap_scan", "trace_invariant_sweep"]


def test_verify_failing_check_prints_fail_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verify, "fd_check", lambda problem, x: (1.0, 0.0))
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--suite", "fd", "--out", str(report_path)]) == 1
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert len(lines) == len(builtin_registry())
    assert all(line.startswith("fd_check ") and line.endswith("  FAIL") for line in lines)
    [report] = json.loads(report_path.read_text())
    assert not report["pass"] and not any(o["pass"] for o in report["observations"])


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err

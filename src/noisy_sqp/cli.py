"""Command line entry point: solve / grid / profile / verify subcommands."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import verify as verify_mod
from .harness import (
    OPTIMISMS,
    SCHEMES,
    ExperimentConfig,
    VariantSpec,
    costs_to_tsv,
    performance_profile,
    profile_to_tsv,
    records_from_csv,
    run_grid,
    run_single,
)
from .problems import ParseError, builtin_registry, get_problem
from .driver import SolverParams
from .noise import NoiseSpec, derive_gradient_noise


def _build_parser():
    parser = argparse.ArgumentParser(prog="noisy-sqp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one problem once")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--variant", choices=list(SCHEMES), required=True)
    p_solve.add_argument("--optimism", choices=list(OPTIMISMS), required=True)
    p_solve.add_argument("--eps-f", type=float, required=True)
    p_solve.add_argument("--eps-c", type=float, required=True)
    p_solve.add_argument("--seed", type=int, required=True)
    p_solve.add_argument("--exact", action="store_true")
    p_solve.add_argument("--kappa", type=float, default=SolverParams.kappa)
    p_solve.add_argument("--duplicated", action="store_true")
    p_solve.add_argument("--max-iters", type=int, default=SolverParams.max_iters)
    p_solve.add_argument("--max-weighted-evals", type=int, default=SolverParams.max_weighted_evals)
    p_solve.set_defaults(run=_cmd_solve)

    p_grid = sub.add_parser("grid", help="run an experiment grid from a config")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(run=_cmd_grid)

    p_prof = sub.add_parser("profile", help="performance profiles from a results CSV")
    p_prof.add_argument("--in", dest="infile", required=True)
    p_prof.add_argument("--cost", choices=["evals", "minres"], default="evals")
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(run=_cmd_profile)

    p_verify = sub.add_parser("verify", help="run the independent verification suite")
    p_verify.add_argument("--suite", choices=["all", *VERIFY_CHECKS], default="all")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(run=_cmd_verify)
    return parser


# bad problem names, paths and files
INPUT_ERRORS = (OSError, KeyError, ParseError)


def _error(kind: str, exc: Exception) -> int:
    """Print one ``kind: message`` line for a user error; exit status 2."""
    # str() of a KeyError quotes its message
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"{kind}: {message}", file=sys.stderr)
    return 2


def _cmd_solve(args) -> int:
    try:
        variant = VariantSpec(
            scheme=args.variant, optimism=args.optimism,
            exactness="exact" if args.exact else "inexact", kappa=args.kappa)
        record = run_single(
            args.problem, variant, args.eps_f, args.eps_c, args.seed,
            "duplicated" if args.duplicated else "original",
            budgets=(args.max_iters, args.max_weighted_evals))
    except INPUT_ERRORS as exc:
        return _error("input error", exc)
    except ValueError as exc:
        return _error("config error", exc)
    print(f"problem            {record.problem}")
    print(f"status             {record.status}")
    print(f"iterations         {record.iters}")
    print(f"weighted evals     {record.weighted_evals}")
    print(f"minres iterations  {record.minres_iters}")
    print(f"cg iterations      {record.cg_iters}")
    print(f"best feasibility   {record.best_feas_err:.6e}")
    print(f"best stationarity  {record.best_stat_err:.6e}")
    print(f"best infeas. stat. {record.best_infeas_stat_err:.6e}")
    print(f"terminated early   {record.terminated_early}")
    print(f"solved             {record.solved}")
    return 0


def _cmd_grid(args) -> int:
    try:
        with open(args.config) as fh:
            config = ExperimentConfig.from_json(fh.read())
        config.out_dir = args.out
        records, path = run_grid(config)
    except ParseError as exc:  # a malformed problem file
        return _error("input error", exc)
    except (OSError, ValueError, KeyError) as exc:
        return _error("config error", exc)
    solved = sum(1 for r in records if r.solved)
    print(f"{len(records)} runs -> {path} ({solved} solved)")
    return 0


def _cmd_profile(args) -> int:
    cost_field = {"evals": "weighted_evals", "minres": "minres_iters"}[args.cost]
    try:
        with open(args.infile) as fh:
            records = records_from_csv(fh.read())
        table = performance_profile(records, cost_field=cost_field)
    except (OSError, KeyError, ValueError) as exc:
        return _error("input error", exc)
    costs_path = os.path.splitext(args.out)[0] + ".costs.tsv"
    try:
        with open(args.out, "w") as fh, open(costs_path, "w") as costs_fh:
            fh.write(profile_to_tsv(table))
            costs_fh.write(costs_to_tsv(table))
    except OSError as exc:  # an --out path that cannot be written
        return _error("config error", exc)
    print(f"profiles -> {args.out}; per-instance costs -> {costs_path}")
    return 0


def _invariant_sweep(registry):
    eps_g, eps_J = derive_gradient_noise(1e-4, 1e-4)
    noise = NoiseSpec(eps_f=1e-4, eps_g=eps_g, eps_c=1e-4, eps_J=eps_J)
    params = [SolverParams(noise, variant=v, max_iters=60) for v in SCHEMES.values()]
    full_rank = [p for p in registry if p.full_rank]
    return verify_mod.trace_invariant_sweep(full_rank[:4], params, range(3))


# `verify --suite` names and their checks, in run order; "all" runs every check
VERIFY_CHECKS = {
    "fd": lambda registry, quad: verify_mod.fd_scan(registry),
    "cauchy": lambda registry, quad: verify_mod.cauchy_perturbation_scan(quad, quad.x0),
    "tangential": lambda registry, quad: verify_mod.tangential_gap_scan(quad, np.zeros(quad.n)),
    "invariants": lambda registry, quad: _invariant_sweep(registry),
}


def _cmd_verify(args) -> int:
    registry, quad = builtin_registry(), get_problem("quad-linear")
    reports = [check(registry, quad) for name, check in VERIFY_CHECKS.items()
               if args.suite in ("all", name)]
    for report in reports:
        lines = [(f"{report.check:<24}", report.passed)]
        if report.check == "fd_check":
            lines = [(f"fd_check {o['problem']:<20} grad {o['grad_err']:.2e}  "
                      f"jac {o['jac_err']:.2e} ", o["pass"]) for o in report.observations]
        for label, good in lines:
            print(f"{label} {'pass' if good else 'FAIL'}")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write("[" + ",\n".join(r.to_json() for r in reports) + "]\n")
        except OSError as exc:  # exit 1 stays a failed check's
            return _error("config error", exc)
        print(f"reports -> {args.out}")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # numpy's warnings stay off for the command only, not for the caller's process
    with np.errstate(all="ignore"):
        return args.run(args)


if __name__ == "__main__":
    sys.exit(main())

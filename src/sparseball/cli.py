"""Command-line interface.

Subcommands: solve (discrete solvers), cuts (separation at a point),
robust (counterpart solve), gen (instance files), experiment (full grid),
eval (worst case of a given portfolio).  Exit codes: 0 success, 1 usage,
2 solver failure, 3 I/O or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    DEFAULT_TOL,
    MixedPoint,
    SolverError,
    as_vector,
    load_problem_instance,
    loads_strict,
)
from .discrete import solve_discrete_bruteforce, solve_discrete_sort
from .harness import (
    ExperimentConfig,
    emit_report,
    generate_instance,
    load_experiment_config,
    run_experiment,
)
from .hull import SEPARATION_EXACT_GUARD, submodular_cut_1, submodular_cut_2, violated_cuts
from .robust import (
    METHODS,
    PortfolioPoint,
    load_robust_instance,
    nominal_value,
    robust_instance_to_dict,
    solve_counterpart,
    worst_case,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to the documented 1
    def error(self, message):
        raise _UsageError(message)


def _load_json_or_path(arg: str):
    """Accept either inline JSON or a path to a JSON file."""
    text = arg
    stripped = arg.strip()
    if not (stripped.startswith("[") or stripped.startswith("{")):
        text = Path(arg).read_text()
    return loads_strict(text)


def _vector_arg(arg: str, name: str, key: str | None = None) -> np.ndarray:
    """A finite 1-D vector from inline JSON or a file; with a key, an object
    holding the vector under that key is accepted too.  Malformed input is a
    ValueError (exit 3)."""
    obj = _load_json_or_path(arg)
    if isinstance(obj, dict) and key is not None:
        if key not in obj:
            raise ValueError(f"{name} must be a JSON array or an object with a {key!r} array")
        obj = obj[key]
    return as_vector(obj, name)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_solve(args) -> int:
    inst = load_problem_instance(args.instance)
    if args.method == "sort":
        if inst.zfam.kind != "card_eq":
            raise _UsageError("--method sort requires a card_eq instance")
        if np.any(inst.c != 0.0):
            raise _UsageError("--method sort requires c = 0")
        sol = solve_discrete_sort(inst.a, inst.zfam.k)
    else:
        sol = solve_discrete_bruteforce(inst)
    _emit({"z": sol.z_opt.tolist(), "x": sol.x_opt.tolist(), "value": sol.value,
           "method": args.method})
    return EXIT_OK


def _cmd_cuts(args) -> int:
    obj = _load_json_or_path(args.point)
    try:
        point = MixedPoint(np.asarray(obj["x"], dtype=float), np.asarray(obj["z"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"point file must carry x and z arrays ({exc})") from exc
    alpha = _vector_arg(args.alpha, "alpha")
    n = point.n
    if alpha.size != n:
        raise _UsageError("alpha must match the point dimension")
    if args.mode == "exact" and n > SEPARATION_EXACT_GUARD:
        raise _UsageError(f"exact mode is guarded to n <= {SEPARATION_EXACT_GUARD}")
    if args.top is not None and args.top < 0:
        raise _UsageError(f"--top must be nonnegative, got {args.top}")
    # only the two globally valid families; the base inequality holds just
    # on the restricted face and cannot be reported as violated
    members, violations = violated_cuts(point, alpha, args.mode)
    flat = violations.ravel()
    order = np.argsort(-flat, kind="stable")
    order = order[flat[order] > DEFAULT_TOL.feas_abs][: args.top]
    seen = []
    for index in order:
        row, family = divmod(int(index), 2)
        make = (submodular_cut_1, submodular_cut_2)[family]
        entry = make(np.flatnonzero(members[row]), alpha).to_dict()
        seen.append({**entry, "violation": float(flat[index])})
    _emit(seen)
    return EXIT_OK


def _cmd_robust(args) -> int:
    inst = load_robust_instance(args.instance)
    result = solve_counterpart(args.method, inst)
    _emit({
        "y": result.y_star.y.tolist(),
        "objective": result.objective,
        "worst_case": worst_case(result.y_star, inst),
        "nominal_value": nominal_value(result.y_star, inst),
        "iterations": result.iterations,
    })
    return EXIT_OK


def _cmd_gen(args) -> int:
    inst = generate_instance(args.n, args.k, args.b, args.seed)
    payload = robust_instance_to_dict(inst)
    payload["seed"] = args.seed
    text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.config is not None:
        config = load_experiment_config(args.config)
    else:
        config = ExperimentConfig()
    run = run_experiment(config)
    if not run.records:
        raise SolverError("every solve in the grid failed")
    emit_report(run.records, args.out, metadata=run.metadata)
    sys.stdout.write(f"wrote {len(run.records)} records to {args.out}\n")
    if run.failures:
        sys.stdout.write(f"{len(run.failures)} solves failed; see metadata.json\n")
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_eval(args) -> int:
    inst = load_robust_instance(args.instance)
    y = _vector_arg(args.y, "y", key="y")
    if y.size != inst.n:
        raise _UsageError("y must match the instance dimension")
    y = PortfolioPoint(y)
    _emit({"worst_case": worst_case(y, inst), "nominal_value": nominal_value(y, inst)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparseball",
                     description="indicator-ball solvers, cuts and robust counterparts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem-instance JSON exactly")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=("bruteforce", "sort"), default="bruteforce")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("cuts", help="emit violated cuts at a point")
    p.add_argument("--point", required=True, help="JSON {x: [...], z: [...]} inline or path")
    p.add_argument("--alpha", required=True, help="JSON array inline or path")
    p.add_argument("--mode", choices=("heuristic", "exact"), default="heuristic")
    p.add_argument("--top", type=int, default=None, help="emit at most this many cuts")
    p.set_defaults(func=_cmd_cuts)

    p = sub.add_parser("robust", help="solve a robust counterpart")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_robust)

    p = sub.add_parser("gen", help="generate a robust instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("experiment", help="run the full grid and write reports")
    p.add_argument("--config", default=None, help="ExperimentConfig JSON path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("eval", help="evaluate the worst case of a portfolio")
    p.add_argument("--instance", required=True)
    p.add_argument("--y", required=True, help="JSON array inline or path")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

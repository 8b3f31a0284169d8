"""Command-line front end.

Four subcommands: ``solve`` plans a single scenario file, ``export-lp``
writes the scenario's model in the plain-text LP format, ``simulate``
runs the rolling-horizon practice over an epoch history (or a generated
synthetic one), and ``oracle`` cross-checks the solver against
exhaustive enumeration on small random instances.

Exit status is 0 on success, 1 when the model is infeasible or an
oracle trial disagrees, and 2 for usage or file-format problems.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bnb import DEFAULT_NODE_CAP, RepairInfeasibleError, exhaustive_objective, random_instance, solve_mip
from .heuristics import solve_pipeline
from .mip import DEFAULT_K_MAX, build, export_lp_text
from .model import MintPlanError, ScenarioFormatError, Solution, load_scenario
from .rolling import (
    compare,
    dump_simulation,
    generate_synthetic_scenario,
    load_simulation,
    report_csv,
    run_simulation,
)

USAGE_ERROR = 2
INFEASIBLE = 1


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _solution_doc(solution: Solution) -> dict:
    return {
        "status": solution.status,
        "objective": solution.objective,
        "cost": solution.cost,
        "k": solution.k,
        "orders": [[float(v) for v in row] for row in solution.plan.orders],
        "inventory": [[float(v) for v in row] for row in solution.plan.inventory],
        "shifts": {
            "blanking": list(solution.shifts.blanking),
            "annealing": list(solution.shifts.annealing),
            "striking": list(solution.shifts.striking),
        },
        "notes": list(solution.notes),
    }


def _print_solution(solution: Solution, denominations: tuple[str, ...]) -> None:
    print(f"status: {solution.status}")
    print(f"extra-shift cost: {solution.cost:.6f}")
    print(f"terminal surplus k: {solution.k:.6f}")
    header = "quarter  " + "  ".join(f"{d:>10}" for d in denominations) + "   shifts (blk/ann/stk)"
    print(header)
    for t in range(solution.plan.horizon):
        cells = "  ".join(f"{v:10.3f}" for v in solution.plan.orders[t])
        shifts = (
            f"{solution.shifts.blanking[t]}/"
            f"{solution.shifts.annealing[t]}/"
            f"{solution.shifts.striking[t]}"
        )
        print(f"{t:7d}  {cells}   {shifts}")
    for note in solution.notes:
        print(f"note: {note}")


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario, config = load_scenario(_read_text(args.scenario))
    solution = solve_pipeline(
        scenario,
        config,
        use_proc1=args.proc1,
        use_proc2=args.proc2,
        order=args.heuristic_order,
        granularity=args.granularity,
        k_max=args.k_max,
        node_cap=args.node_cap,
    )
    if solution.status != "optimal":
        if args.json:
            print(json.dumps({"status": solution.status}, indent=2))
        else:
            print("the scenario has no feasible plan", file=sys.stderr)
        return INFEASIBLE
    if args.json:
        print(json.dumps(_solution_doc(solution), indent=2))
    else:
        _print_solution(solution, scenario.denominations)
    return 0


def _cmd_export_lp(args: argparse.Namespace) -> int:
    scenario, config = load_scenario(_read_text(args.scenario))
    text = export_lp_text(build(scenario, config, k_max=args.k_max))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.synthetic is None):
        print("simulate needs exactly one of INPUT or --synthetic SEED", file=sys.stderr)
        return USAGE_ERROR
    if args.baseline and args.synthetic is None:
        print("--baseline needs a synthetic run (no baseline policy in input files)", file=sys.stderr)
        return USAGE_ERROR
    baseline_orders = None
    if args.synthetic is not None:
        bundle = generate_synthetic_scenario(args.synthetic)
        history, config, specs, settings = bundle.history, bundle.config, bundle.coin_specs, bundle.settings
        baseline_orders = bundle.baseline_orders
    else:
        history, config, specs, settings = load_simulation(_read_text(args.input))

    overrides = {}
    if args.proc1 is not None:
        overrides["use_proc1"] = args.proc1
    if args.proc2 is not None:
        overrides["use_proc2"] = args.proc2
    if args.heuristic_order is not None:
        overrides["heuristic_order"] = args.heuristic_order
    if overrides:
        from dataclasses import replace

        settings = replace(settings, **overrides)

    if args.dump_input:
        with open(args.dump_input, "w", encoding="utf-8") as fh:
            fh.write(dump_simulation(history, config, specs, settings))

    report = run_simulation(history, config, specs, settings)
    summary = None
    if args.baseline:
        summary = compare(report, baseline_orders, config, specs)

    text = report_csv(report, summary)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if summary is not None:
        print(
            f"total extra-shift cost {summary.model_total:.3f} vs baseline {summary.baseline_total:.3f} "
            f"({summary.percent_reduction:.1f}% lower), "
            f"extended-capacity quarters {summary.model_extended_total} vs {summary.baseline_extended_total}",
            file=sys.stderr,
        )
    if report.infeasible_epochs:
        print(f"epochs with no usable model solution: {list(report.infeasible_epochs)}", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.trials < 0:
        print(f"--trials must be 0 or more, got {args.trials}", file=sys.stderr)
        return USAGE_ERROR
    sizes = {
        "--horizon": args.horizon,
        "--denoms": args.denoms,
        "--blanking-levels": args.blanking_levels,
        "--striking-levels": args.striking_levels,
    }
    for flag, value in sizes.items():
        if value < 1:
            print(f"{flag} must be 1 or more, got {value}", file=sys.stderr)
            return USAGE_ERROR
    if args.trials == 0:
        print("warning: zero trials requested; nothing was checked", file=sys.stderr)
        return 0
    n_binaries = args.horizon * (args.blanking_levels + args.striking_levels + 1)
    if 2 ** n_binaries > 4096:
        print(
            f"instance too large for enumeration: 2^{n_binaries} shift assignments "
            "(keep horizon * (levels + 1) small)",
            file=sys.stderr,
        )
        return USAGE_ERROR
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    for trial in range(args.trials):
        scenario, config = random_instance(
            rng,
            horizon=args.horizon,
            n_denoms=args.denoms,
            n_blanking_levels=args.blanking_levels,
            n_striking_levels=args.striking_levels,
        )
        problem = build(scenario, config, k_max=args.k_max)
        got = solve_mip(problem, node_cap=args.node_cap)
        want_status, want_objective = exhaustive_objective(problem)
        ok = got.status == want_status and (
            want_status != "optimal" or abs(got.objective - want_objective) <= 1e-6
        )
        if not ok:
            mismatches += 1
            print(
                f"trial {trial}: MISMATCH solver={got.status}/{got.objective!r} "
                f"oracle={want_status}/{want_objective!r}"
            )
        elif args.verbose:
            print(f"trial {trial}: ok status={want_status} objective={want_objective:.6f}")
    print(f"{args.trials} trials, {mismatches} mismatches")
    return INFEASIBLE if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mintplan",
        description="Minimum-cost quarterly coin production planning.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k-max", type=float, default=DEFAULT_K_MAX, help="terminal surplus ceiling")
    common.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP, help="search node budget")

    p_solve = sub.add_parser("solve", parents=[common], help="plan one scenario file")
    p_solve.add_argument("scenario", help="scenario JSON file")
    p_solve.add_argument("--proc1", action=argparse.BooleanOptionalAction, default=True,
                         help="fill spare base capacity at unchanged cost")
    p_solve.add_argument("--proc2", action=argparse.BooleanOptionalAction, default=True,
                         help="push paid shifts out of the committed first quarter")
    p_solve.add_argument("--heuristic-order", choices=("proc2-first", "proc1-first"), default="proc2-first")
    p_solve.add_argument("--granularity", type=float, default=1.0, help="order rounding unit")
    p_solve.add_argument("--json", action="store_true", help="print the plan as JSON")
    p_solve.set_defaults(func=_cmd_solve)

    p_export = sub.add_parser("export-lp", help="write the scenario's model as LP text")
    p_export.add_argument("scenario", help="scenario JSON file")
    p_export.add_argument("-o", "--output", help="output path (default stdout)")
    p_export.add_argument("--k-max", type=float, default=DEFAULT_K_MAX)
    p_export.set_defaults(func=_cmd_export_lp)

    p_sim = sub.add_parser("simulate", help="run the rolling quarterly practice")
    p_sim.add_argument("input", nargs="?", help="simulation JSON file")
    p_sim.add_argument("--synthetic", type=int, metavar="SEED",
                       help="generate a synthetic multi-year scenario instead of reading a file")
    p_sim.add_argument("--baseline", action="store_true",
                       help="also cost the reactive baseline (synthetic runs only)")
    p_sim.add_argument("--proc1", action=argparse.BooleanOptionalAction, default=None)
    p_sim.add_argument("--proc2", action=argparse.BooleanOptionalAction, default=None)
    p_sim.add_argument("--heuristic-order", choices=("proc2-first", "proc1-first"), default=None)
    p_sim.add_argument("--csv", metavar="PATH", help="write the report CSV here instead of stdout")
    p_sim.add_argument("--dump-input", metavar="PATH",
                       help="also write the effective simulation input as JSON")
    p_sim.set_defaults(func=_cmd_simulate)

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="compare the solver with exhaustive enumeration on random instances")
    p_oracle.add_argument("--trials", type=int, default=20)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--horizon", type=int, default=2)
    p_oracle.add_argument("--denoms", type=int, default=2)
    p_oracle.add_argument("--blanking-levels", type=int, default=2)
    p_oracle.add_argument("--striking-levels", type=int, default=2)
    p_oracle.add_argument("--verbose", action="store_true")
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except ScenarioFormatError as exc:
        print(f"bad input file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RepairInfeasibleError as exc:
        print(f"no integral plan: {exc}", file=sys.stderr)
        return INFEASIBLE
    except (MintPlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

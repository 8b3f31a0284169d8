"""Output checks. Each returns a list of problems; an empty list passes."""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from mintplan import costs, mip
from mintplan.model import scaled_breakpoints

#: Tolerance on objectives, costs and stocks.
TOL = 1e-6


def check_campaigns(outputs, golden: dict) -> list[str]:
    """Stock identity and quarter costs for every campaign; the golden
    summary for the campaign whose seed it records."""
    problems = []
    for seed, bundle, report, summary in outputs:
        stock = report.initial_inventory + np.cumsum(report.orders - report.realized, axis=0)
        gap = float(np.max(np.abs(report.inventories - stock)))
        if gap > TOL:
            problems.append(f"campaign {seed}: stock identity off by {gap:g}")
        for t, order in enumerate(report.orders):
            expected = _quarter_cost(order, bundle.config, bundle.coin_specs, report.disruptions, t)
            if abs(expected - report.quarter_costs[t]) > TOL:
                problems.append(
                    f"campaign {seed}: quarter {t} costs {float(report.quarter_costs[t])!r}, recomputed {expected!r}"
                )
        if seed == golden["seed"]:
            problems += [f"campaign {seed}: {p}" for p in _golden_problems(report, summary, golden)]
    return problems


def _quarter_cost(order, config, specs, disruptions, quarter: int) -> float:
    """The quarter's bill from the three step-cost functions, on the
    quarter's disruption-scaled ladders."""
    use = costs.usage(order, specs)
    blanking, annealing, striking = (
        scaled_breakpoints(config, disruptions, quarter, p) for p in ("blanking", "annealing", "striking")
    )
    scaled = replace(
        config,
        blanking_breakpoints=blanking,
        annealing_base=annealing[0],
        annealing_max=annealing[1],
        striking_breakpoints=striking,
    )
    return (
        costs.blanking_cost(use.blanking_days, scaled)
        + costs.annealing_cost(use.annealing_tons, scaled)
        + costs.striking_cost(use.striking_count, scaled)
    )


def _golden_problems(report, summary, golden: dict) -> list[str]:
    accepted_fill = [
        e
        for e, events in enumerate(report.heuristic_events)
        if any(ev.procedure == "procedure1" and ev.accepted for ev in events)
    ]
    observed = {
        "model_total": summary.model_total,
        "baseline_total": summary.baseline_total,
        "percent_reduction": summary.percent_reduction,
        "model_extended_total": summary.model_extended_total,
        "baseline_extended_total": summary.baseline_extended_total,
        "accepted_fill_epochs": accepted_fill,
        "infeasible_epochs": list(report.infeasible_epochs),
        "disrupted_quarters": list(report.disrupted_quarters),
    }
    problems = []
    for key, got in observed.items():
        want = golden[key]
        same = abs(got - want) <= TOL if isinstance(want, float) else got == want
        if not same:
            problems.append(f"golden {key} is {want!r}, got {got!r}")
    return problems


def check_oracle(outputs) -> list[str]:
    """Branch and bound agrees with enumeration on status and objective,
    and every optimum audits clean against its own model."""
    problems = []
    for i, (problem, solution, (status, objective)) in enumerate(outputs):
        if solution.status != status or (status == "optimal" and abs(solution.objective - objective) > TOL):
            problems.append(
                f"trial {i}: branch and bound {solution.status}/{solution.objective!r}, "
                f"enumeration {status}/{objective!r}"
            )
        elif status == "optimal":
            violated = mip.check_solution(problem, mip.assignment_from_solution(problem, solution))
            if violated:
                problems.append(f"trial {i}: optimum violates {violated}")
    return problems


def highs_crosscheck(outputs) -> tuple[list[str], list[float]]:
    """Solve every trial's model with HiGHS and compare status, cost and
    K with mintplan's answer. Returns the problems and HiGHS wall seconds
    per solve (both lexicographic phases)."""
    problems, seconds = [], []
    for i, (problem, solution, _) in enumerate(outputs):
        t0 = time.perf_counter()
        status, cost, k = highs_lexicographic(problem)
        seconds.append(time.perf_counter() - t0)
        if status != solution.status:
            problems.append(f"trial {i}: HiGHS {status}, mintplan {solution.status}")
        elif status == "optimal" and (
            abs(cost - solution.cost) > TOL * max(1.0, abs(cost)) or abs(k - solution.k) > TOL * max(1.0, abs(k))
        ):
            problems.append(f"trial {i}: HiGHS cost {cost!r} K {k!r}, mintplan cost {solution.cost!r} K {solution.k!r}")
    return problems, seconds


def highs_lexicographic(problem) -> tuple[str, float, float]:
    """``(status, cost, K)`` from ``scipy.optimize.milp``: minimize the
    extra-shift cost, then maximize K with the cost pinned."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(problem.columns)
    a = np.zeros((len(problem.rows), n))
    lo = np.full(len(problem.rows), -np.inf)
    hi = np.full(len(problem.rows), np.inf)
    for r, row in enumerate(problem.rows):
        for col, coeff in row.coeffs:
            a[r, col] = coeff
        if row.relation in ("<=", "="):
            hi[r] = row.rhs
        if row.relation in (">=", "="):
            lo[r] = row.rhs
    rows = LinearConstraint(a, lo, hi)
    bounds = Bounds(np.array(problem.lower), np.array(problem.upper))
    integrality = np.zeros(n)
    integrality[list(problem.binaries)] = 1
    options = {"mip_rel_gap": 0.0}

    k_col = problem.column_index("K")
    cost = np.array(problem.objective)
    cost[k_col] = 0.0
    first = milp(cost, integrality=integrality, bounds=bounds, constraints=rows, options=options)
    if first.status == 2:
        return "infeasible", math.nan, math.nan
    if first.status != 0:
        raise RuntimeError(f"HiGHS stopped with status {first.status}: {first.message}")
    best = float(sum(cost[col] * round(first.x[col]) for col in problem.binaries))

    lock = LinearConstraint(cost[None, :], best - TOL / 10, best + TOL / 10)
    k_only = np.zeros(n)
    k_only[k_col] = -1.0
    second = milp(k_only, integrality=integrality, bounds=bounds, constraints=[rows, lock], options=options)
    if second.status != 0:
        raise RuntimeError(f"HiGHS lost the pinned cost: status {second.status}: {second.message}")
    return "optimal", best, float(second.x[k_col])

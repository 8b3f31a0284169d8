"""Independent reference answers for solver validation.

Everything here deliberately avoids the library's simplex and search
code. The LP oracle enumerates basic points geometrically; the random
LP generator builds small dense problems straight from the dataclasses.
These routines were written and frozen before the solvers were tuned
against them. ``highs_lexicographic`` hands a model to HiGHS, through
scipy, for instances too large to enumerate.
``every_binary_override_objective`` is the one that runs the library's
simplex: it solves every assignment of the enumeration, in product
order, with every binary in its override. ``permute_rows``,
``floors_as_bounds``, ``scale_rows``, ``duplicate_capacity_rows`` and
``permute_columns`` rewrite a model into an equivalent one, which must
solve to the same answer at any size; ``rescale_coins`` does the same to
the data the model is built from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from mintplan import MintConfig, Scenario, StandardFormProblem, lpsolve
from mintplan.mip import Row
from mintplan.model import PROCESSES

FEAS_TOL = 1e-7


def _as_inequalities(problem: StandardFormProblem):
    """All constraints as rows of A x <= b, including bounds."""
    n = len(problem.columns)
    A_rows, b_vals = [], []

    def add(vec, rhs):
        A_rows.append(np.asarray(vec, dtype=float))
        b_vals.append(float(rhs))

    for row in problem.rows:
        vec = np.zeros(n)
        for col, coeff in row.coeffs:
            vec[col] = coeff
        if row.relation in ("<=", "="):
            add(vec, row.rhs)
        if row.relation in (">=", "="):
            add(-vec, -row.rhs)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        add(e, problem.upper[j])
        add(-e, -problem.lower[j])
    return np.array(A_rows), np.array(b_vals)


def _best_vertex(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Minimum of c x over every vertex of {x : A x <= b}, or None when
    no subset of tight constraints yields a feasible point."""
    m, n = A.shape
    best = None
    for subset in itertools.combinations(range(m), n):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, b[list(subset)])
        slack = A @ x - b
        if np.any(slack > FEAS_TOL * np.maximum(1.0, np.abs(b))):
            continue
        val = float(c @ x)
        if best is None or val < best[0]:
            best = (val, x)
    return best


def lp_oracle(problem: StandardFormProblem) -> tuple[str, float]:
    """Reference LP answer by vertex enumeration. Every column is boxed,
    so the LP is infeasible or has an optimum at a vertex. Only suitable
    for a handful of columns and rows.
    """
    A, b = _as_inequalities(problem)
    best = _best_vertex(A, b, np.asarray(problem.objective, dtype=float))
    return ("infeasible", math.nan) if best is None else ("optimal", best[0])


def random_lp(rng: np.random.Generator) -> StandardFormProblem:
    """Small dense LP with integer-leaning data.

    Columns get finite lower bounds (sometimes negative) and uppers 1
    to 8 above them. Row relations mix all three senses so infeasible
    draws occur.
    """
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 6))
    columns = tuple(f"f[0,{j}]" for j in range(n))
    objective = tuple(float(v) for v in rng.integers(-5, 6, n))

    lower, upper = [], []
    for _ in range(n):
        lo = float(rng.integers(-3, 1)) if rng.random() < 0.35 else 0.0
        if rng.random() < 0.3:
            hi = lo + 8.0  # the widest box a drawn upper gets
        else:
            hi = lo + float(rng.integers(1, 9))
        lower.append(lo)
        upper.append(hi)

    rows = []
    for i in range(m):
        coeffs = tuple(
            (j, float(v)) for j, v in enumerate(rng.integers(-5, 6, n)) if v != 0
        )
        if not coeffs:
            continue
        relation = rng.choice(("<=", "<=", ">=", "="))
        rows.append(Row(label=f"r[{i}]", coeffs=coeffs, relation=str(relation), rhs=float(rng.integers(-8, 12))))

    return StandardFormProblem(
        columns=columns,
        objective=objective,
        rows=tuple(rows),
        lower=tuple(lower),
        upper=tuple(upper),
    )


def highs_lexicographic(problem: StandardFormProblem) -> tuple[str, float, float]:
    """``(status, bill, K)`` from HiGHS through ``scipy.optimize.milp``:
    minimize the extra-shift bill, then maximize K with the bill held at
    that optimum. It reads only the model's rows, bounds and binaries,
    and always takes both passes."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(problem.columns)
    a = np.zeros((len(problem.rows), n))
    lo = np.full(len(problem.rows), -np.inf)
    hi = np.full(len(problem.rows), np.inf)
    for r, row in enumerate(problem.rows):
        for col, coeff in row.coeffs:
            a[r, col] = coeff
        if row.relation != ">=":
            hi[r] = row.rhs
        if row.relation != "<=":
            lo[r] = row.rhs
    rows = LinearConstraint(a, lo, hi)
    bounds = Bounds(np.array(problem.lower), np.array(problem.upper))
    integrality = np.zeros(n)
    integrality[list(problem.binaries)] = 1
    bill = np.zeros(n)
    for col in problem.binaries:
        bill[col] = problem.objective[col]

    def solve(objective, constraints):
        options = {"mip_rel_gap": 0.0}
        return milp(objective, integrality=integrality, bounds=bounds, constraints=constraints, options=options)

    first = solve(bill, [rows])
    if first.status == 2:
        return ("infeasible", math.nan, math.nan)
    assert first.status == 0, first.message
    best = float(bill @ np.round(first.x))
    slack = 1e-7 * max(1.0, abs(best))
    k_reward = np.zeros(n)
    k_reward[problem.column_index("K")] = -1.0
    second = solve(k_reward, [rows, LinearConstraint(bill[None, :], best - slack, best + slack)])
    assert second.status == 0, second.message
    return ("optimal", best, float(second.x[problem.column_index("K")]))


def every_binary_override_objective(problem: StandardFormProblem) -> tuple[str, float]:
    """The answer of ``bnb.exhaustive_objective`` from every admissible
    assignment, solved in product order along one warm chain, each LP
    with every binary in its override, on a copy of the model that
    maximizes K and changes nothing else; the bill sums over all the
    binaries."""
    options = [
        [None] + [col for col in problem.ladders[process, quarter] if problem.upper[col] > 0.0]
        for process in ("striking", "blanking", "annealing")
        for quarter in range(problem.horizon)
    ]
    best_key, best_objective = None, math.nan
    k_col = problem.column_index("K")
    k_only = replace(problem, objective=tuple(-1.0 if col == k_col else 0.0 for col in range(len(problem.columns))))
    last = lpsolve.slack_start(k_only)
    for combo in itertools.product(*options):
        override = {col: (0.0, 0.0) for col in problem.binaries}
        for col in combo:
            if col is not None:
                override[col] = (1.0, 1.0)
        res = lpsolve.solve_lp(k_only, bounds_override=override, warm_start=last)
        if res.can_warm_start:
            last = res
        if res.status != "optimal":
            continue
        cost = float(sum(problem.objective[col] * hi for col, (_, hi) in override.items()))
        k = -res.objective
        key = (round(cost, 9), -k)
        if best_key is None or key < best_key:
            best_key, best_objective = key, cost - k
    return ("infeasible", math.nan) if best_key is None else ("optimal", best_objective)


def permute_rows(problem: StandardFormProblem, rng: np.random.Generator) -> StandardFormProblem:
    """The model with its rows in a random order."""
    order = rng.permutation(len(problem.rows))
    return replace(problem, rows=tuple(problem.rows[i] for i in order))


def floors_as_bounds(problem: StandardFormProblem) -> StandardFormProblem:
    """The model with each ``operating_floor`` row dropped and its stock
    column's lower bound raised to the row's right-hand side."""
    lower = list(problem.lower)
    rows = []
    for row in problem.rows:
        if row.label.startswith("operating_floor["):
            ((col, coeff),) = row.coeffs
            assert coeff == 1.0 and row.relation == ">=", row
            lower[col] = max(lower[col], row.rhs)
        else:
            rows.append(row)
    return replace(problem, rows=tuple(rows), lower=tuple(lower))


def scale_rows(problem: StandardFormProblem, rng: np.random.Generator) -> StandardFormProblem:
    """The model with each row, coefficients and right-hand side, times a
    power of two drawn from {0.25, 0.5, 2, 4}: exact in floating point."""
    factors = rng.choice((0.25, 0.5, 2.0, 4.0), len(problem.rows))
    rows = tuple(
        replace(row, coeffs=tuple((col, coeff * f) for col, coeff in row.coeffs), rhs=row.rhs * f)
        for row, f in zip(problem.rows, factors.tolist())
    )
    return replace(problem, rows=rows)


def duplicate_capacity_rows(problem: StandardFormProblem) -> StandardFormProblem:
    """The model with a copy of every process capacity row, 1.0 looser:
    redundant rows the solver must see through."""
    families = {f"{process}_capacity" for process in PROCESSES}
    copies = tuple(
        replace(row, label=f"loose_{row.label}", rhs=row.rhs + 1.0)
        for row in problem.rows
        if row.label.split("[")[0] in families
    )
    assert copies
    return replace(problem, rows=problem.rows + copies)


def permute_columns(problem: StandardFormProblem, rng: np.random.Generator) -> StandardFormProblem:
    """The model with its columns renumbered at random: the row terms
    (re-sorted by column), the names, the objective and the bounds
    follow their columns, so no reader may assume ``build``'s order."""
    old_at = rng.permutation(len(problem.columns)).tolist()  # new column -> old column
    new_at = {old: new for new, old in enumerate(old_at)}
    rows = tuple(
        replace(row, coeffs=tuple(sorted((new_at[col], coeff) for col, coeff in row.coeffs))) for row in problem.rows
    )
    return StandardFormProblem(
        columns=tuple(problem.columns[old] for old in old_at),
        objective=tuple(problem.objective[old] for old in old_at),
        rows=rows,
        lower=tuple(problem.lower[old] for old in old_at),
        upper=tuple(problem.upper[old] for old in old_at),
    )


def rescale_coins(scenario: Scenario, config: MintConfig, factor: float) -> tuple[Scenario, MintConfig]:
    """The data counted in a coin unit ``factor`` times smaller: every
    coin count (demand, floors, opening and safety stock, the vault, the
    striking breakpoints) times ``factor``, and what one unit of coins
    loads (blanking rates, alloy weights) divided by it, so the blanking
    and annealing loads, the bill and K stay the same."""
    specs = tuple(
        replace(spec, alloy_weight=spec.alloy_weight / factor, blanking_rate=spec.blanking_rate / factor)
        for spec in scenario.coin_specs
    )
    rescaled = replace(
        scenario,
        coin_specs=specs,
        demand=scenario.demand * factor,
        operating_floor=scenario.operating_floor * factor,
        vault_cap=scenario.vault_cap * factor,
        safety_min=scenario.safety_min * factor,
        initial_inventory=scenario.initial_inventory * factor,
    )
    return rescaled, replace(config, striking_breakpoints=tuple(b * factor for b in config.striking_breakpoints))

"""Bounded-variable simplex behavior, checked by hand and by oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mintplan import IterationCapExceeded, LpResult, MintPlanError, Row, StandardFormProblem, VariableIndex, solve_lp
from mintplan import lpsolve

from oracles import lp_oracle, random_lp


def small_lp(objective, rows, lower, upper) -> StandardFormProblem:
    n = len(objective)
    return StandardFormProblem(
        columns=tuple(VariableIndex(kind="f", column=j, quarter=0, index=j) for j in range(n)),
        objective=tuple(float(v) for v in objective),
        rows=tuple(rows),
        lower=tuple(float(v) for v in lower),
        upper=tuple(float(v) for v in upper),
        binaries=(),
    )


def test_pure_bound_minimum():
    problem = small_lp([-1.0], [Row("r[0]", ((0, 1.0),), "<=", 5.0)], [0.0], [10.0])
    res = solve_lp(problem)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-5.0, abs=1e-9)
    assert res.x[0] == pytest.approx(5.0, abs=1e-9)


def test_two_variable_corner():
    # min -x - 2y subject to x + y <= 4, y <= 3
    rows = [
        Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0),
        Row("r[1]", ((1, 1.0),), "<=", 3.0),
    ]
    res = solve_lp(small_lp([-1.0, -2.0], rows, [0.0, 0.0], [math.inf, math.inf]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-7.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-8)
    assert res.x[1] == pytest.approx(3.0, abs=1e-8)


def test_equality_row_requires_phase1():
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "=", 6.0)]
    res = solve_lp(small_lp([2.0, 3.0], rows, [0.0, 0.0], [10.0, 10.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(12.0, abs=1e-9)  # all mass on the cheap column
    assert res.x[0] == pytest.approx(6.0, abs=1e-8)


def test_infeasible_and_unbounded_detection():
    rows = [
        Row("r[0]", ((0, 1.0),), ">=", 5.0),
        Row("r[1]", ((0, 1.0),), "<=", 2.0),
    ]
    res = solve_lp(small_lp([1.0], rows, [0.0], [10.0]))
    assert res.status == "infeasible"
    assert math.isnan(res.objective)
    assert res.x is None

    res = solve_lp(small_lp([-1.0], [], [0.0], [math.inf]))
    assert res.status == "unbounded"
    assert res.objective == -math.inf


def test_conflicting_bounds_are_infeasible():
    problem = small_lp([1.0], [], [3.0], [2.0])
    assert solve_lp(problem).status == "infeasible"


def test_negative_lower_bounds():
    res = solve_lp(small_lp([1.0], [Row("r[0]", ((0, 1.0),), ">=", -1.5)], [-4.0], [4.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.5, abs=1e-9)


def test_free_columns_are_rejected():
    with pytest.raises(MintPlanError, match="unbounded in both directions"):
        solve_lp(small_lp([1.0], [], [-math.inf], [math.inf]))


def test_bounds_override_pins_columns():
    problem = small_lp([-1.0, -1.0], [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 6.0)], [0.0, 0.0], [5.0, 5.0])
    res = solve_lp(problem, bounds_override={0: (2.0, 2.0)})
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)
    assert res.objective == pytest.approx(-6.0, abs=1e-9)


def test_iteration_cap_raises():
    rows = [
        Row("r[0]", ((0, 1.0), (1, 2.0)), "<=", 7.0),
        Row("r[1]", ((0, 2.0), (1, 1.0)), "<=", 8.0),
        Row("r[2]", ((0, 1.0), (1, -1.0)), ">=", -3.0),
    ]
    problem = small_lp([-3.0, -4.0], rows, [0.0, 0.0], [10.0, 10.0])
    with pytest.raises(IterationCapExceeded):
        solve_lp(problem, iteration_cap=1)


def test_degenerate_rows_do_not_cycle():
    # several redundant rows through the same corner; Bland's rule must
    # still terminate at the optimum
    rows = [
        Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0),
        Row("r[1]", ((0, 2.0), (1, 2.0)), "<=", 8.0),
        Row("r[2]", ((0, 3.0), (1, 3.0)), "<=", 12.0),
        Row("r[3]", ((0, 1.0),), "<=", 4.0),
    ]
    res = solve_lp(small_lp([-1.0, -1.0], rows, [0.0, 0.0], [10.0, 10.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0, abs=1e-9)


def test_result_point_satisfies_all_rows():
    rng = np.random.default_rng(31)
    seen = 0
    while seen < 40:
        problem = random_lp(rng)
        res = solve_lp(problem)
        if res.status != "optimal":
            continue
        seen += 1
        for row in problem.rows:
            assert row.violation(res.x) <= 1e-7 * max(1.0, abs(row.rhs))
        for j in range(len(problem.columns)):
            assert res.x[j] >= problem.lower[j] - 1e-9
            assert res.x[j] <= problem.upper[j] + 1e-9


def test_agrees_with_vertex_oracle_on_random_lps():
    """Dense random LPs, including infeasible and unbounded draws."""
    rng = np.random.default_rng(123)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(120):
        problem = random_lp(rng)
        want_status, want_objective = lp_oracle(problem)
        got = solve_lp(problem)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.objective == pytest.approx(want_objective, abs=1e-7, rel=1e-7)
        statuses[want_status] += 1
    # the draw must actually exercise all three outcomes
    assert min(statuses.values()) >= 5


def same_result(a: LpResult, b: LpResult) -> bool:
    return (
        a.status == b.status
        and repr(a.objective) == repr(b.objective)
        and (a.x is None) == (b.x is None)
        and (a.x is None or a.x.tobytes() == b.x.tobytes())
        and a.basis == b.basis
        and a.iterations == b.iterations
    )


def three_rows_lp() -> StandardFormProblem:
    # min -x0 - x1 - x2 with x_i <= 5: the optimum has every x_i basic at
    # 5, so fixing them at 1 needs one dual pivot per row
    rows = [Row(f"r[{i}]", ((i, 1.0),), "<=", 5.0) for i in range(3)]
    return small_lp([-1.0, -1.0, -1.0], rows, [0.0] * 3, [10.0] * 3)


def test_warm_start_reoptimizes_by_dual_pivots():
    problem = three_rows_lp()
    first = solve_lp(problem)
    fixed = {i: (1.0, 1.0) for i in range(3)}
    warm = solve_lp(problem, bounds_override=fixed, warm_start=first)
    cold = solve_lp(problem, bounds_override=fixed)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert warm.iterations == 3
    chained = solve_lp(problem, warm_start=warm)
    assert chained.objective == pytest.approx(first.objective, abs=1e-12)


def test_warm_start_falls_back_past_the_iteration_cap():
    problem = three_rows_lp()
    first = solve_lp(problem)
    fixed = {i: (1.0, 1.0) for i in range(3)}
    warm = solve_lp(problem, bounds_override=fixed, iteration_cap=1, warm_start=first)
    assert same_result(warm, solve_lp(problem, bounds_override=fixed, iteration_cap=1))


def test_singular_start_basis_falls_back_to_cold():
    # the two rows have parallel columns, so basis (x, y) is singular
    rows = [
        Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0),
        Row("r[1]", ((0, 2.0), (1, 2.0)), "<=", 10.0),
    ]
    problem = small_lp([-1.0, -2.0], rows, [0.0, 0.0], [10.0, 10.0])
    # a bare basis carries no tableau to reoptimize from
    singular = LpResult(status="optimal", objective=0.0, basis=(0, 1))
    assert same_result(solve_lp(problem, warm_start=singular), solve_lp(problem))
    # nor does a result of another problem object, however equal
    other = solve_lp(replace(problem), bounds_override={1: (0.0, 0.0)})
    assert same_result(solve_lp(problem, warm_start=other), solve_lp(problem))


def test_singular_refactorization_in_a_warm_start_falls_back_to_cold(monkeypatch):
    problem = three_rows_lp()
    first = solve_lp(problem)
    fixed = {i: (1.0, 1.0) for i in range(3)}
    restarted = lpsolve._Tableau.restarted

    def singular_restart(self, lower, upper):
        new = restarted(self, lower, upper)

        def refactor():
            raise np.linalg.LinAlgError("Singular matrix")

        new._refactor = refactor
        return new

    monkeypatch.setattr(lpsolve._Tableau, "restarted", singular_restart)
    warm = solve_lp(problem, bounds_override=fixed, warm_start=first)
    assert same_result(warm, solve_lp(problem, bounds_override=fixed))


def test_dual_infeasible_start_falls_back_to_cold():
    # with y pinned at 0 the optimum leaves y nonbasic with reduced cost
    # -1; freed, y prefers its infinite upper bound
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)]
    problem = small_lp([-1.0, -2.0], rows, [0.0, 0.0], [10.0, math.inf])
    pinned = solve_lp(problem, bounds_override={1: (0.0, 0.0)})
    assert pinned.status == "optimal"
    warm = solve_lp(problem, warm_start=pinned)
    assert same_result(warm, solve_lp(problem))
    assert warm.objective == pytest.approx(-8.0, abs=1e-12)


def test_dual_ratio_test_proves_infeasibility(monkeypatch):
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)]
    problem = small_lp([-1.0, -1.0], rows, [0.0, 0.0], [10.0, 10.0])
    first = solve_lp(problem)
    assert solve_lp(problem, bounds_override={0: (5.0, 5.0)}).status == "infeasible"

    def no_cold_solve(*args):
        raise AssertionError("the warm start fell back to a cold solve")

    monkeypatch.setattr(lpsolve, "_solve_cold", no_cold_solve)
    warm = solve_lp(problem, bounds_override={0: (5.0, 5.0)}, warm_start=first)
    assert warm.status == "infeasible"
    assert math.isnan(warm.objective) and warm.x is None


def test_warm_start_without_rows():
    problem = small_lp([-1.0], [], [0.0], [10.0])
    first = solve_lp(problem)
    assert first.basis == ()
    warm = solve_lp(problem, bounds_override={0: (0.0, 5.0)}, warm_start=first)
    assert warm.status == "optimal" and warm.basis == ()
    assert warm.objective == -5.0 and warm.x[0] == 5.0
    assert warm.iterations == 0  # the reduced cost alone puts x at its upper bound

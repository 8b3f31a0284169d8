"""Bounded-variable simplex behavior, checked by hand and by oracle."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from mintplan import (
    IterationCapExceeded,
    LpResult,
    MintPlanError,
    StandardFormProblem,
    build,
    random_instance,
    solve_lp,
)
from mintplan import lpsolve
from mintplan.mip import Row

from oracles import every_binary_override_objective, lp_oracle, random_lp


def small_lp(objective, rows, lower, upper) -> StandardFormProblem:
    n = len(objective)
    return StandardFormProblem(
        columns=tuple(f"f[0,{j}]" for j in range(n)),
        objective=tuple(float(v) for v in objective),
        rows=tuple(rows),
        lower=tuple(float(v) for v in lower),
        upper=tuple(float(v) for v in upper),
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
    res = solve_lp(small_lp([-1.0, -2.0], rows, [0.0, 0.0], [10.0, 10.0]))
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


def test_infeasible_detection():
    rows = [
        Row("r[0]", ((0, 1.0),), ">=", 5.0),
        Row("r[1]", ((0, 1.0),), "<=", 2.0),
    ]
    res = solve_lp(small_lp([1.0], rows, [0.0], [10.0]))
    assert res.status == "infeasible"
    assert math.isnan(res.objective)
    assert res.x is None


def test_conflicting_bounds_are_infeasible():
    problem = small_lp([1.0], [], [3.0], [2.0])
    assert solve_lp(problem).status == "infeasible"


def test_negative_lower_bounds():
    res = solve_lp(small_lp([1.0], [Row("r[0]", ((0, 1.0),), ">=", -1.5)], [-4.0], [4.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.5, abs=1e-9)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "lower, upper",
    [
        ([-INF, 0], [INF, 5]),  # free both ways
        ([0, 0], [INF, 5]),  # open above
        ([0, -INF], [5, 0]),  # open below
        ([NAN, 0], [3, 5]),  # as a "nan <= f[0,0] <= 3" line would give
        ([0, 0], [5, NAN]),
    ],
)
def test_the_problem_type_refuses_a_non_finite_bound(lower, upper):
    """Every LP the solver sees is boxed: the model must give every column
    finite bounds."""
    with pytest.raises(ValueError, match="bounds must be finite"):
        small_lp([-1.0, -2.0], [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)], lower, upper)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize(
    "lower, upper, override, want",
    [
        ([0, 0], [5, 5], {0: (-INF, INF)}, "raises"),  # frees a column both ways
        ([0, 0], [5, 5], {-2: (-INF, INF)}, "raises"),  # the same column by a negative index
        ([0, 0], [5, 5], {0: (0.0, INF)}, "raises"),  # opens one side
        ([0, 0], [5, 5], {-1: (-INF, 5.0)}, "raises"),
        ([0, 0], [5, 5], {0: (NAN, NAN)}, "raises"),
        ([0, 0], [5, 5], {0: (NAN, INF)}, "raises"),
        ([0, 0], [5, 5], {0: (NAN, 3.0)}, "raises"),  # a NaN beside a finite bound
        ([0, 0], [5, 5], {0: (3.0, NAN)}, "raises"),
        ([0, 0], [5, 5], {0: (2.0, 1.0)}, "infeasible"),
        ([0, 0], [5, 5], {0: (1.0 + 2e-12, 1.0)}, "infeasible"),
        ([0, 0], [5, 5], {-1: (2.0, 1.0)}, "infeasible"),
        ([0, 0], [5, 5], {0: (1.0 + 5e-13, 1.0)}, -7.0),  # crossed within 1e-12
        ([3, 0], [2, 5], {0: (1.0, 2.0)}, -7.0),  # a crossed model column boxed again
        ([3, 0], [2, 5], {1: (1.0, 2.0)}, "infeasible"),  # ... or left crossed
        ([3, 0], [2, 5], {1: (-INF, INF)}, "raises"),  # a non-finite entry outranks a crossed column
    ],
)
def test_bounds_checks_read_the_model_and_the_override(lower, upper, override, want, warm):
    """A non-finite override entry raises, and crossed bounds are
    infeasible, whether the model or the override makes them so; an
    override that boxes a crossed model column again clears it."""
    problem = small_lp([-1.0, -2.0], [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)], lower, upper)
    start = lpsolve.slack_start(problem) if warm else None
    if want == "raises":
        with pytest.raises(MintPlanError, match="is not finite"):
            solve_lp(problem, bounds_override=override, warm_start=start)
        return
    res = solve_lp(problem, bounds_override=override, warm_start=start)
    if want == "infeasible":
        assert res.status == "infeasible" and math.isnan(res.objective) and res.x is None
    else:
        assert res.status == "optimal"
        assert res.objective == pytest.approx(want, abs=1e-9)


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
    """Dense random LPs, including infeasible draws."""
    rng = np.random.default_rng(123)
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(120):
        problem = random_lp(rng)
        want_status, want_objective = lp_oracle(problem)
        got = solve_lp(problem)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.objective == pytest.approx(want_objective, abs=1e-7, rel=1e-7)
        statuses[want_status] += 1
    # the draw must actually exercise both outcomes
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


def test_every_start_of_a_boxed_lp_is_dual_feasible(monkeypatch):
    # with y pinned at 0 the optimum leaves y nonbasic with reduced cost
    # -1; freed, y prefers its upper bound, which is finite, and so does
    # every column of the slack start: both restart with no cold solve
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)]
    problem = small_lp([-1.0, -2.0], rows, [0.0, 0.0], [10.0, 10.0])
    cold = solve_lp(problem)
    pinned = solve_lp(problem, bounds_override={1: (0.0, 0.0)})
    assert pinned.status == "optimal"
    monkeypatch.setattr(lpsolve, "_solve_cold", lambda *args: pytest.fail("fell back to a cold solve"))
    for start in (pinned, lpsolve.slack_start(problem)):
        warm = solve_lp(problem, warm_start=start)
        assert warm.status == "optimal" and warm.iterations > 0
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert cold.objective == pytest.approx(-8.0, abs=1e-12)


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


def test_slack_start_runs_the_dual_from_the_first_solve(monkeypatch):
    # with x fixed at 5 the row misses by 1: the dual proves it with no
    # cold solve, and the proof carries its basis on to the next solve
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)]
    problem = small_lp([1.0, -1.0], rows, [0.0, 0.0], [10.0, 10.0])
    colds = [solve_lp(problem, bounds_override={0: (v, v)}) for v in (5.0, 3.0)]
    monkeypatch.setattr(lpsolve, "_solve_cold", lambda *args: pytest.fail("fell back to a cold solve"))
    infeasible = solve_lp(problem, bounds_override={0: (5.0, 5.0)}, warm_start=lpsolve.slack_start(problem))
    assert infeasible.status == colds[0].status == "infeasible"
    assert math.isnan(infeasible.objective) and infeasible.x is None
    assert infeasible.can_warm_start
    warm = solve_lp(problem, bounds_override={0: (3.0, 3.0)}, warm_start=infeasible)
    assert warm.status == colds[1].status == "optimal"
    assert warm.objective == pytest.approx(colds[1].objective, abs=1e-9)


def long_chain() -> tuple[StandardFormProblem, list, list]:
    """A 3x3 model, 100 random fixings of its binaries and their cold
    results, every infeasible fixing first: restarted one from the last,
    they make a chain of more than REFACTOR_EVERY dual pivots."""
    problem = build(*random_instance(np.random.default_rng(2026), horizon=3, n_denoms=3))
    fixings = np.random.default_rng(0).integers(0, 2, (100, len(problem.binaries)))
    overrides = [{col: (float(v), float(v)) for col, v in zip(problem.binaries, row)} for row in fixings]
    colds = [solve_lp(problem, bounds_override=override) for override in overrides]
    order = sorted(range(len(overrides)), key=lambda i: colds[i].status != "infeasible")
    return problem, [overrides[i] for i in order], [colds[i] for i in order]


def test_long_chain_through_infeasible_results_matches_cold(monkeypatch):
    """Infeasible results hand their basis on without a refactorization,
    so the count of product-form updates must carry across restarts:
    along a chain of more than REFACTOR_EVERY pivots, the inverse is
    still refactored after at most that many updates."""
    problem, overrides, colds = long_chain()
    pivots = updates = longest = 0
    pivot, inv = lpsolve._Tableau._pivot, np.linalg.inv

    def counted_pivot(self, pos, dq):
        nonlocal pivots, updates, longest
        pivots += 1
        updates += 1
        longest = max(longest, updates)
        pivot(self, pos, dq)

    def counted_inv(matrix):
        nonlocal updates
        updates = 0
        return inv(matrix)

    monkeypatch.setattr(lpsolve._Tableau, "_pivot", counted_pivot)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    last = lpsolve.slack_start(problem)  # one chain: each solve restarts from the last
    for override, cold in zip(overrides, colds):
        if cold.status == "optimal" and last.status == "infeasible":
            assert pivots > lpsolve.REFACTOR_EVERY  # the infeasible run
        res = solve_lp(problem, bounds_override=override, warm_start=last)
        assert res.status == cold.status
        if res.status == "optimal":
            assert res.objective == pytest.approx(cold.objective, abs=1e-9)
        assert res.can_warm_start
        last = res
    assert {cold.status for cold in colds} == {"infeasible", "optimal"}
    assert longest <= lpsolve.REFACTOR_EVERY


def fresh_reduced_costs(tableau) -> np.ndarray:
    c = tableau.asm.cost
    return c - (c[tableau.basis] @ tableau.B_inv) @ tableau.A


def test_carried_reduced_costs_match_a_fresh_pricing(monkeypatch):
    """A tableau keeps its reduced costs until a pivot or an inversion
    changes its inverse, and a restart takes over its source's. Along the
    long chain, every read of them and every result's copy must equal, bit
    for bit, what pricing that tableau afresh gives. The model's own costs
    sit on few columns, so most dual pivots would leave every reduced cost
    as it was; a positive cost on every column makes them move. The chain
    runs on through the same fixings shuffled, where an infeasible result
    that pivoted hands on an inverse that a warm solve without a pivot
    then refactors."""
    problem, overrides, _ = long_chain()
    rng = np.random.default_rng(5)
    problem = replace(problem, objective=tuple(float(c) for c in rng.uniform(0.5, 2.0, len(problem.columns))))
    overrides += [overrides[i] for i in rng.permutation(len(overrides))]
    reads = pivots = inversions = 0
    reduced_costs, pivot, refactor = lpsolve._Tableau.reduced_costs, lpsolve._Tableau._pivot, lpsolve._Tableau._refactor

    def checked_read(self):
        nonlocal reads
        reads += 1
        reduced = reduced_costs(self)
        assert reduced.tobytes() == fresh_reduced_costs(self).tobytes()
        return reduced

    def counted_pivot(self, pos, dq):
        nonlocal pivots
        pivots += 1
        pivot(self, pos, dq)

    def counted_refactor(self):
        nonlocal inversions
        inversions += self._pivots > 0
        refactor(self)

    monkeypatch.setattr(lpsolve._Tableau, "reduced_costs", checked_read)
    monkeypatch.setattr(lpsolve._Tableau, "_pivot", counted_pivot)
    monkeypatch.setattr(lpsolve._Tableau, "_refactor", counted_refactor)
    last = lpsolve.slack_start(problem)
    for override in overrides:
        last = solve_lp(problem, bounds_override=override, warm_start=last)
        carried = last._tableau._reduced
        if carried is not None:
            assert carried.tobytes() == fresh_reduced_costs(last._tableau).tobytes()
    assert pivots > lpsolve.REFACTOR_EVERY and inversions > 0
    assert reads > len(overrides)


def fresh_sides(tableau, derive=None) -> tuple:
    """What ``restart_sides`` (or ``derive``, its unpatched self) derives
    for ``tableau`` with nothing kept."""
    clone = copy.copy(tableau)
    clone._reduced = clone._sides = None
    return (derive or lpsolve._Tableau.restart_sides)(clone)


def same_sides(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_restarts_from_one_source_match_restarts_from_fresh_copies():
    """A source derives its sides once; every later restart from it, and
    from copies that took them over, starts as a restart from a copy of
    the source with nothing kept. Two columns with zero cost tie: the
    optimum leaves both at their lower bounds, and they keep that side
    in whatever box a restart gives them."""
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)]
    problem = small_lp([-1.0, -2.0, 0.0, 0.0], rows, [0.0] * 4, [10.0, 10.0, 5.0, 5.0])
    source = solve_lp(problem)
    assert source.status == "optimal" and source._tableau.status.tolist()[2:4] == [lpsolve._AT_LOWER] * 2
    overrides = [
        {2: (1.0, 3.0), 3: (2.0, 4.0)},  # each tie's box moves
        {0: (1.0, 1.0)},
        {1: (0.0, 2.0)},
        {0: (1.0, 1.0)},
        {2: (1.0, 3.0), 3: (2.0, 4.0)},
    ]

    def fresh_copy(result):
        tableau = copy.copy(result._tableau)
        tableau._reduced = tableau._sides = None
        return replace(result, _tableau=tableau)

    for start in (source, solve_lp(problem, bounds_override={0: (1.0, 1.0)}, warm_start=source)):
        derived = start._tableau.restart_sides()
        assert same_sides(derived, fresh_sides(start._tableau))
        for override in overrides:
            got = solve_lp(problem, bounds_override=override, warm_start=start)
            want = solve_lp(problem, bounds_override=override, warm_start=fresh_copy(start))
            assert got.status == "optimal" and same_result(got, want), override
            assert got._tableau.status.tobytes() == want._tableau.status.tobytes()
            assert start._tableau.restart_sides() is derived  # derived once
            if got._tableau._sides is not None:
                assert same_sides(got._tableau._sides, fresh_sides(got._tableau))
        moved = solve_lp(problem, bounds_override=overrides[0], warm_start=start)
        assert moved.x[2] == 1.0 and moved.x[3] == 2.0


def test_cached_sides_match_a_fresh_derivation(monkeypatch):
    """A restart takes over its source's sides, and keeps them until a
    pivot, an inversion or a primal pass moves a column. Along the long
    chain with a positive cost on every column (so pivots move the
    reduced costs), shuffled so that warm solves without a pivot refactor
    inverses that infeasible results handed on, every read of the sides
    and every result's kept sides must equal a fresh derivation, bit for
    bit."""
    problem, overrides, _ = long_chain()
    rng = np.random.default_rng(5)
    problem = replace(problem, objective=tuple(float(c) for c in rng.uniform(0.5, 2.0, len(problem.columns))))
    overrides += [overrides[i] for i in rng.permutation(len(overrides))]
    reads = kept = pivots = inversions = 0
    restart_sides, pivot, refactor = lpsolve._Tableau.restart_sides, lpsolve._Tableau._pivot, lpsolve._Tableau._refactor

    def checked_read(self):
        nonlocal reads, kept
        reads += 1
        kept += self._sides is not None
        sides = restart_sides(self)
        assert same_sides(sides, fresh_sides(self, restart_sides))
        return sides

    def counted_pivot(self, pos, dq):
        nonlocal pivots
        pivots += 1
        pivot(self, pos, dq)

    def counted_refactor(self):
        nonlocal inversions
        inversions += self._pivots > 0
        refactor(self)

    monkeypatch.setattr(lpsolve._Tableau, "restart_sides", checked_read)
    monkeypatch.setattr(lpsolve._Tableau, "_pivot", counted_pivot)
    monkeypatch.setattr(lpsolve._Tableau, "_refactor", counted_refactor)
    last = lpsolve.slack_start(problem)
    for override in overrides:
        last = solve_lp(problem, bounds_override=override, warm_start=last)
        if last.can_warm_start and last._tableau._sides is not None:
            assert same_sides(last._tableau._sides, fresh_sides(last._tableau, restart_sides))
    assert pivots > lpsolve.REFACTOR_EVERY and inversions > 0
    assert reads == len(overrides) and 0 < kept < reads


def test_a_warm_solve_without_a_pivot_runs_no_primal_pass(monkeypatch):
    """A restart puts every column at the bound its reduced cost prefers,
    so when the dual simplex ends feasible without a pivot no column can
    enter and the primal pass is skipped. Over an enumeration, the primal
    passes outside cold solves are exactly those of the warm solves the
    dual pivoted to feasibility. The full product-order chain of the
    enumeration gives both kinds of warm solve."""
    problem = build(*random_instance(np.random.default_rng(11), n_denoms=4))
    iterate, dual_iterate, solve_cold = lpsolve._Tableau.iterate, lpsolve._Tableau.dual_iterate, lpsolve._solve_cold
    warm_passes = pivoted = unpivoted = 0
    in_cold = False

    def counted_iterate(self, c, cap):
        nonlocal warm_passes
        warm_passes += not in_cold
        return iterate(self, c, cap)

    def counted_dual(self, cap):
        nonlocal pivoted, unpivoted
        status = dual_iterate(self, cap)
        if status == "feasible":
            pivoted += self.iterations > 0
            unpivoted += self.iterations == 0
        return status

    def counted_cold(*args):
        nonlocal in_cold
        in_cold = True
        try:
            return solve_cold(*args)
        finally:
            in_cold = False

    monkeypatch.setattr(lpsolve._Tableau, "iterate", counted_iterate)
    monkeypatch.setattr(lpsolve._Tableau, "dual_iterate", counted_dual)
    monkeypatch.setattr(lpsolve, "_solve_cold", counted_cold)
    every_binary_override_objective(problem)
    assert warm_passes == pivoted
    assert unpivoted > pivoted > 0


def test_a_start_that_sends_a_slack_to_its_infinite_side_falls_back_to_cold(monkeypatch):
    # only a slack or an artificial has an infinite bound, and no result
    # that can warm start prefers it; a start that put one there would
    # not be dual feasible, so the solve falls back to cold
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), "<=", 4.0)]
    problem = small_lp([-1.0, -2.0], rows, [0.0, 0.0], [10.0, 10.0])
    start = lpsolve.slack_start(problem)
    assert start.status == "unsolved" and start.can_warm_start
    pinned = solve_lp(problem, bounds_override={1: (0.0, 0.0)})
    assert 2 not in pinned.basis  # r[0]'s slack
    restart_sides = lpsolve._Tableau.restart_sides

    def slack_at_upper(self):
        reduced, at_upper, status = restart_sides(self)
        at_upper = at_upper.copy()
        at_upper[2] = True
        return reduced, at_upper, status

    monkeypatch.setattr(lpsolve._Tableau, "restart_sides", slack_at_upper)
    colds = []
    solve_cold = lpsolve._solve_cold

    def counted_cold(*args):
        colds.append(solve_cold(*args))
        return colds[-1]

    monkeypatch.setattr(lpsolve, "_solve_cold", counted_cold)
    warm = solve_lp(problem, warm_start=pinned)
    assert len(colds) == 1 and warm is colds[0]
    assert warm.objective == pytest.approx(-8.0, abs=1e-12)


def test_starts_of_another_problem_object_solve_cold():
    problem = three_rows_lp()
    other = replace(problem)
    fixed = {0: (6.0, 6.0)}  # past r[0]'s right-hand side: infeasible
    proved = solve_lp(other, bounds_override=fixed, warm_start=lpsolve.slack_start(other))
    assert proved.status == "infeasible" and proved.can_warm_start
    for start in (lpsolve.slack_start(other), proved):
        assert same_result(solve_lp(problem, warm_start=start), solve_lp(problem))
        assert same_result(solve_lp(problem, bounds_override=fixed, warm_start=start), solve_lp(problem, bounds_override=fixed))


def test_cold_solves_of_one_problem_assemble_it_once(monkeypatch):
    assembled = []
    init = lpsolve._Assembly.__init__

    def counted(self, problem):
        assembled.append(problem)
        init(self, problem)

    monkeypatch.setattr(lpsolve._Assembly, "__init__", counted)
    problem = three_rows_lp()
    for value in (None, 1.0, 2.0, 6.0):
        solve_lp(problem, bounds_override=None if value is None else {0: (value, value)})
    assert assembled == [problem]
    equal = replace(problem)  # equal, but another object
    solve_lp(equal)
    solve_lp(problem)
    assert [p is problem for p in assembled] == [True, False, True]


def test_worst_violation_names_the_largest():
    rows = [
        Row("r[0]", ((0, 1.0),), "<=", 1.0),
        Row("r[1]", ((1, 1.0),), ">=", 5.0),
        Row("r[2]", ((0, 1.0), (1, 1.0)), "=", 6.0),
    ]
    asm = lpsolve._Assembly(small_lp([0.0, 0.0], rows, [0.0, 0.0], [10.0, 10.0]))
    assert asm.worst_violation(np.array([2.0, 1.0])) == (1, 4.0)  # r[0] by 1, r[1] by 4, r[2] by 3
    assert asm.worst_violation(np.array([2.0, 9.0])) == (2, 5.0)  # r[0] by 1, r[2] by 5
    assert asm.worst_violation(np.array([3.0, 5.0])) == (0, 2.0)  # r[0] and r[2] both by 2
    assert asm.worst_violation(np.array([1.0 + 5e-8, 5.0])) is None


def screen_spy(monkeypatch) -> list:
    """Records what each bound-box screen before a cold solve answered."""
    answers = []
    screen = lpsolve._Assembly.box_misses_a_row

    def spy(self, lower, upper):
        answers.append(screen(self, lower, upper))
        return answers[-1]

    monkeypatch.setattr(lpsolve._Assembly, "box_misses_a_row", spy)
    return answers


def unscreened(monkeypatch, *args, **kwargs) -> LpResult:
    with monkeypatch.context() as patch:
        patch.setattr(lpsolve._Assembly, "box_misses_a_row", lambda self, lower, upper: False)
        return solve_lp(*args, **kwargs)


def test_box_screen_leaves_a_slim_miss_to_phase_1(monkeypatch):
    # at x = 1, the row misses by half the phase-1 tolerance: the screen
    # must stay quiet and phase 1 accepts the point
    rows = [Row("r[0]", ((0, 1.0),), ">=", 1.0 + 0.5 * lpsolve.FEAS_TOL)]
    problem = small_lp([1.0], rows, [0.0], [1.0])
    answers = screen_spy(monkeypatch)
    res = solve_lp(problem)
    assert answers == [False]
    assert res.status == "optimal"
    assert res.x[0] == 1.0


def test_box_screen_answers_a_clear_miss_as_phase_1_would(monkeypatch):
    rows = [
        Row("r[0]", ((0, 1.0), (1, 1.0)), ">=", 5.0),  # at most 3 over the box
        Row("r[1]", ((0, 1.0), (1, -1.0)), "<=", 4.0),
    ]
    problem = small_lp([1.0, 1.0], rows, [0.0, 0.0], [1.0, 2.0])
    answers = screen_spy(monkeypatch)
    screened = solve_lp(problem)
    assert answers == [True]
    cold = unscreened(monkeypatch, problem)
    assert cold.status == "infeasible"
    assert same_result(screened, cold)


def test_box_screen_reads_the_bounds_override(monkeypatch):
    rows = [Row("r[0]", ((0, 1.0), (1, 1.0)), ">=", 2.5)]
    problem = small_lp([1.0, 1.0], rows, [0.0, 0.0], [1.0, 2.0])
    answers = screen_spy(monkeypatch)
    assert solve_lp(problem).status == "optimal"
    pinned = {1: (0.0, 0.0)}  # leaves r[0] at most 1
    screened = solve_lp(problem, bounds_override=pinned)
    assert answers == [False, True]
    assert same_result(screened, unscreened(monkeypatch, problem, bounds_override=pinned))

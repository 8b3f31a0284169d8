"""Tree search against enumeration, and integral repair behavior."""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mintplan import (
    PROCESSES,
    CoinSpec,
    InjectedConstraint,
    MintConfig,
    NodeCapExceeded,
    RepairInfeasibleError,
    Scenario,
    ShiftSelection,
    assignment_from_solution,
    build,
    check_solution,
    exhaustive_objective,
    export_lp_text,
    integerize,
    load_scenario,
    parse_lp_text,
    random_instance,
    restrict,
    shift_cost,
    solve_mip,
)
from mintplan import bnb, lpsolve
from mintplan.mip import plan_of, shifts_of


def load_fixture(name: str):
    text = resources.files("mintplan").joinpath(f"fixtures/{name}").read_text()
    return load_scenario(text)


def test_tiny_fixture_optimum_by_hand():
    """Two quarters, 146 million coins demanded against a 70 per-quarter
    base: one striking level-1 shift (9) is unavoidable, and the safety
    multiplier reaches its ceiling for free."""
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    sol = solve_mip(problem)
    assert sol.status == "optimal"
    assert sol.cost == pytest.approx(9.0, abs=1e-9)
    assert sol.k == pytest.approx(2.0, abs=1e-9)
    assert sol.objective == pytest.approx(7.0, abs=1e-9)
    status, objective = exhaustive_objective(problem)
    assert status == "optimal"
    assert objective == pytest.approx(7.0, abs=1e-9)


def test_slack_fixture_costs_nothing():
    scenario, config = load_fixture("slack.json")
    sol = solve_mip(build(scenario, config))
    assert sol.status == "optimal"
    assert sol.cost == 0.0
    assert sol.k == pytest.approx(2.0, abs=1e-9)


def test_solution_bookkeeping_invariants():
    scenario, config = load_fixture("tiny.json")
    sol = solve_mip(build(scenario, config))
    assert sol.objective == pytest.approx(sol.cost - sol.k, abs=1e-9)
    assert sol.plan.orders.shape == (2, 2)
    # inventory follows the balance recursion
    expected = np.asarray(scenario.initial_inventory, dtype=float)
    for t in range(2):
        expected = expected + sol.plan.orders[t] - scenario.demand[t]
        assert sol.plan.inventory[t] == pytest.approx(expected, abs=1e-7)


def test_matches_exhaustive_enumeration_on_random_instances():
    rng = np.random.default_rng(99)
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(25):
        scenario, config = random_instance(rng)
        problem = build(scenario, config)
        want_status, want_objective = exhaustive_objective(problem)
        got = solve_mip(problem)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.objective == pytest.approx(want_objective, abs=1e-6)
        statuses[want_status] += 1
    assert statuses["optimal"] >= 10


def test_enumeration_skips_forbidden_levels():
    """Forbid restrictions are zero upper bounds, and the enumeration
    fixes binaries through bounds overrides: it must still leave those
    levels off, or it finds optima the restricted model does not have."""
    rng = np.random.default_rng(11)
    kinds = ("forbid_extra_striking", "forbid_extra_blanking", "forbid_extra_annealing")
    for _ in range(60):
        scenario, config = random_instance(rng)
        injected = tuple(
            dict.fromkeys(  # a repeated restriction is refused; the model is the same without it
                InjectedConstraint(kinds[int(rng.integers(3))], int(rng.integers(2)))
                for _ in range(int(rng.integers(1, 3)))
            )
        )
        problem = restrict(build(scenario, config), injected)
        want_status, want_objective = exhaustive_objective(problem)
        got = solve_mip(problem)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.objective == pytest.approx(want_objective, abs=1e-6)


def fix(problem, col, value):
    """``problem`` with binary ``col`` fixed at ``value`` through its own
    bounds, as the integerizer's escalation fixes a level: 1 raises the
    lower bound, 0 drops the upper one, so a fix the model's bounds rule
    out leaves the column crossed."""
    lower, upper = list(problem.lower), list(problem.upper)
    (lower if value else upper)[col] = value
    return replace(problem, lower=tuple(lower), upper=tuple(upper))


def test_enumeration_keeps_a_level_the_model_switches_on():
    """A level whose lower bound is 1, as an escalation leaves it, stays
    on in every assignment the enumeration solves, so it agrees with the
    tree search. It once zeroed every level's lower bound: draw 0 of
    ``default_rng(3)`` with ``h[0]`` forced on solves to 12.8357, and the
    enumeration answered -2.0 with the annealing shift left off. One
    level is forced per draw, cycling through processes and quarters."""
    rng = np.random.default_rng(3)
    statuses = set()
    for i in range(60):
        problem = build(*random_instance(rng))
        ladder = problem.ladders[("striking", "blanking", "annealing")[i % 3], (i // 3) % problem.horizon]
        forced = fix(problem, ladder[(i // 6) % len(ladder)], 1.0)
        want_status, want_objective = exhaustive_objective(forced)
        got = solve_mip(forced)
        assert got.status == want_status, i
        if want_status == "optimal":
            assert got.objective == pytest.approx(want_objective, abs=1e-6), i
        statuses.add(want_status)
    assert statuses == {"optimal", "infeasible"}


def test_a_fix_on_a_forbidden_level_is_infeasible():
    scenario, config = load_fixture("tiny.json")
    problem = restrict(build(scenario, config), (InjectedConstraint("forbid_extra_striking", 0),))
    col = problem.column_index("a", 0, 1)
    assert solve_mip(fix(problem, col, 1.0)).status == "infeasible"
    assert solve_mip(fix(problem, col, 0.0)).status == "optimal"


def test_node_cap_is_enforced():
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    with pytest.raises(NodeCapExceeded):
        solve_mip(problem, node_cap=1)


@pytest.mark.parametrize("cap", [-5, -1, 2.5, True])
def test_an_unusable_node_cap_is_refused_before_searching(cap, monkeypatch):
    """A negative cap is no spent budget: it raises ValueError, as the
    simulator settings do, before any LP is solved. A cap of 0 stays
    legal and stops at the first LP."""
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    searches = []
    with monkeypatch.context() as patch:
        patch.setattr(bnb, "_branch_and_bound", lambda *args, **kwargs: searches.append(args))
        with pytest.raises(ValueError, match="node_cap must be an integer >= 0"):
            solve_mip(problem, node_cap=cap)
    assert searches == []
    with pytest.raises(NodeCapExceeded):
        solve_mip(problem, node_cap=0)


def test_fixed_binaries_are_respected():
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    base = solve_mip(problem)
    col = problem.column_index("h", 0)  # force a pointless annealing shift
    forced = solve_mip(fix(problem, col, 1.0))
    assert forced.status == "optimal"
    assert forced.shifts.annealing[0] == 1
    assert shift_cost(forced.shifts, config) == forced.cost
    assert forced.cost == pytest.approx(base.cost + 6.0, abs=1e-6)


def test_random_instance_is_deterministic():
    a_scenario, a_config = random_instance(np.random.default_rng(7))
    b_scenario, b_config = random_instance(np.random.default_rng(7))
    assert a_config == b_config
    assert np.array_equal(a_scenario.demand, b_scenario.demand)
    assert np.array_equal(a_scenario.initial_inventory, b_scenario.initial_inventory)
    assert a_scenario.disruptions == b_scenario.disruptions


@pytest.mark.parametrize(
    "name, value",
    [("horizon", 0), ("n_denoms", 0), ("n_denoms", -1), ("n_blanking_levels", 0), ("n_striking_levels", 0)],
)
def test_random_instance_rejects_sizes_below_one(name, value):
    with pytest.raises(ValueError, match=f"{name} must be 1 or more, got {value}"):
        random_instance(np.random.default_rng(7), **{name: value})


def test_integerize_preserves_cost_and_grain():
    rng = np.random.default_rng(4242)
    done = 0
    while done < 15:
        scenario, config = random_instance(rng)
        problem = build(scenario, config)
        sol = solve_mip(problem)
        if sol.status != "optimal":
            continue
        try:
            whole = integerize(problem, sol, scenario)
        except RepairInfeasibleError:
            continue  # a legitimate outcome on tight instances
        done += 1
        assert whole.status == "optimal"
        escalated = any("escalated" in note for note in whole.notes)
        if escalated:
            # a forced higher shift may cost more, never less
            assert whole.cost >= sol.cost - 1e-6
        else:
            assert whole.cost == pytest.approx(sol.cost, abs=1e-6)
        grains = whole.plan.orders / 1.0
        assert np.allclose(grains, np.round(grains), atol=1e-7)
        rebuilt = restrict(build(scenario, config), whole.injections)
        assert check_solution(rebuilt, assignment_from_solution(rebuilt, whole)) == []
    assert done == 15


def test_integerize_respects_coarser_granularity():
    scenario, config = load_fixture("slack.json")
    problem = build(scenario, config)
    sol = solve_mip(problem)
    whole = integerize(problem, sol, scenario, granularity=5.0)
    grains = whole.plan.orders / 5.0
    assert np.allclose(grains, np.round(grains), atol=1e-7)
    assert whole.cost == pytest.approx(sol.cost, abs=1e-6)


def test_integerize_reports_vault_blocked_repair():
    scenario = Scenario(
        horizon=1,
        coin_specs=(CoinSpec("d1", alloy_weight=1.0, blanking_rate=0.1),),
        demand=[[4.6]],
        operating_floor=[[4.8]],
        vault_cap=5.0,
        safety_min=[0.0],
        initial_inventory=[5.0],
    )
    config = MintConfig(
        blanking_breakpoints=(10.0, 14.0),
        blanking_costs=(4.0,),
        annealing_base=30.0,
        annealing_max=45.0,
        annealing_cost=6.0,
        striking_breakpoints=(50.0, 60.0),
        striking_costs=(9.0,),
    )
    problem = build(scenario, config)
    sol = solve_mip(problem)
    assert sol.status == "optimal"
    with pytest.raises(RepairInfeasibleError) as info:
        integerize(problem, sol, scenario, granularity=1.0)
    assert info.value.partial_plan is not None  # the snapped plan is still reported


def growing_ladder():
    """One quarter striking 21 coins on the ladder (10, 20, 22, 60)."""
    scenario = Scenario(
        horizon=1,
        coin_specs=(
            CoinSpec("d1", alloy_weight=2.5, blanking_rate=0.2),
            CoinSpec("d2", alloy_weight=5.0, blanking_rate=0.25),
        ),
        demand=[[10.0, 10.0]],
        operating_floor=[[0.5, 0.0]],
        vault_cap=1.0,
        safety_min=[0.0, 0.0],
        initial_inventory=[0.0, 0.0],
    )
    config = MintConfig(
        blanking_breakpoints=(100.0, 120.0),
        blanking_costs=(4.0,),
        annealing_base=1000.0,
        annealing_max=1200.0,
        annealing_cost=6.0,
        striking_breakpoints=(10.0, 20.0, 22.0, 60.0),
        striking_costs=(1.0, 2.0, 3.0),
    )
    return scenario, config


def test_a_ladder_whose_top_step_grows_reports_the_models_level():
    """Striking (10, 20, 22, 60): usage 21 lies in level 2 by breakpoint,
    but a level's row capacity is the base plus its own step, so level
    2 covers only 12 and the model switches level 3 on. The solution
    reports and prices that level, and the rebuilt assignment and the
    repair caps follow it."""
    scenario, config = growing_ladder()
    problem = build(scenario, config)
    sol = solve_mip(problem)
    assert sol.status == "optimal"
    assert sol.plan.orders.sum() == pytest.approx(21.0, abs=1e-9)
    assert sol.shifts.striking == (3,)
    assert sol.cost == shift_cost(sol.shifts, config) == 3.0
    assert check_solution(problem, assignment_from_solution(problem, sol)) == []
    whole = integerize(problem, sol, scenario, granularity=1.0)
    assert whole.plan.orders.tolist() == [[11.0, 10.0]]


def test_built_and_parsed_models_solve_alike():
    """A model and its LP text dump solve to the same answer, whose cost
    is the step cost of the shifts it reports."""
    cases = [(*growing_ladder(), None)]
    tiny, tiny_config = load_fixture("tiny.json")
    cases.append((tiny, tiny_config, ("h", 0)))  # an annealing shift the plan does not need
    rng = np.random.default_rng(2026)
    cases.extend((*random_instance(rng), None) for _ in range(20))
    optimal = 0
    for scenario, config, forced in cases:
        built = build(scenario, config)
        parsed = parse_lp_text(export_lp_text(built))
        if forced is not None:
            col = built.column_index(*forced)
            built, parsed = fix(built, col, 1.0), fix(parsed, col, 1.0)
        a, b = solve_mip(built), solve_mip(parsed)
        assert a.status == b.status
        if a.status != "optimal":
            continue
        optimal += 1
        assert (a.cost, a.k, a.shifts) == (b.cost, b.k, b.shifts)
        assert a.cost == shift_cost(a.shifts, config)
        assert check_solution(built, assignment_from_solution(built, a)) == []
    assert optimal == 18


def test_integerize_swaps_stock_inside_a_pinned_quarter():
    """With the coin total pinned, flooring and the total's restoration
    can leave one denomination under its stock floor while another holds
    the slack; repair must trade between them instead of adding."""
    scenario = Scenario(
        horizon=1,
        coin_specs=(
            CoinSpec("heavy", alloy_weight=1.0, blanking_rate=0.4),
            CoinSpec("light", alloy_weight=1.0, blanking_rate=0.1),
        ),
        demand=[[40.25, 20.0]],
        operating_floor=[[15.0, 0.0]],
        vault_cap=400.0,
        safety_min=[0.0, 0.0],
        initial_inventory=[5.0, 40.0],
    )
    config = MintConfig(
        blanking_breakpoints=(22.1, 30.0),
        blanking_costs=(12.0,),
        annealing_base=300.0,
        annealing_max=400.0,
        annealing_cost=6.0,
        striking_breakpoints=(70.0, 90.0),
        striking_costs=(9.0,),
    )
    injections = (InjectedConstraint(kind="force_base_striking", quarter=0),)
    problem = restrict(build(scenario, config), injections)
    sol = solve_mip(problem)
    assert sol.status == "optimal" and sol.cost == 0.0
    whole = integerize(problem, sol, scenario)
    assert whole.cost == 0.0
    assert float(np.sum(whole.plan.orders[0])) == pytest.approx(70.0, abs=1e-9)
    assert whole.plan.inventory[0, 0] >= 15.0 - 1e-9
    assert any("under a pinned total" in note for note in whole.notes)
    rebuilt = restrict(build(scenario, config), injections)
    assert check_solution(rebuilt, assignment_from_solution(rebuilt, whole)) == []


def test_integerize_trades_under_both_pinned_totals():
    """With the coin count and the blanking load both pinned, a floor is
    repaired by a trade that keeps both where they are."""
    scenario, config = draw(np.random.default_rng(2026), 50, horizon=2, n_denoms=3)
    injections = (InjectedConstraint("force_base_striking", 0), InjectedConstraint("force_base_blanking", 0))
    problem = restrict(build(scenario, config), injections)
    whole = integerize(problem, solve_mip(problem), scenario)
    assert whole.injections == injections
    assert (
        "traded 0.134332 coins toward denomination 2 in quarter 0 to repair a stock floor under a pinned total"
        in whole.notes
    )
    rebuilt = restrict(build(scenario, config), injections)
    assert check_solution(rebuilt, assignment_from_solution(rebuilt, whole)) == []


def draw(rng, index, **sizes):
    """Draw ``index`` (0-based) of ``random_instance`` on ``rng``."""
    for _ in range(index):
        random_instance(rng, **sizes)
    return random_instance(rng, **sizes)


def integerize_counting_solves(scenario, config):
    """``integerize`` on the model's optimum, with the ``solve_mip``
    calls it makes: the result or the RepairInfeasibleError raised, and
    the count."""
    problem = build(scenario, config)
    sol = solve_mip(problem)
    calls = 0
    real = bnb.solve_mip

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bnb, "solve_mip", counted)
        try:
            outcome = integerize(problem, sol, scenario)
        except RepairInfeasibleError as exc:
            outcome = exc
    return problem, sol, outcome, calls


def test_escalations_accumulate():
    """Each escalation keeps the levels earlier ones switched on. On this
    draw, escalating with only the newest fix alternates between two
    levels until a depth cap (12 re-solves) and then gives up; kept, three
    escalations reach a plan that repairs, each noted with its delta from
    the solution first given."""
    scenario, config = draw(np.random.default_rng(4242), 36)
    problem, sol, whole, calls = integerize_counting_solves(scenario, config)
    assert not isinstance(whole, RepairInfeasibleError)
    escalations = [note for note in whole.notes if note.startswith("escalated")]
    assert [note.rsplit(" ", 1)[1] for note in escalations] == ["+18.7556", "+37.5113", "+45.2145"]
    assert calls <= len(problem.binaries)
    assert whole.cost == pytest.approx(sol.cost + 45.2145, abs=1e-4)
    assert whole.cost == shift_cost(whole.shifts, config)
    rebuilt = restrict(build(scenario, config), whole.injections)
    assert check_solution(rebuilt, assignment_from_solution(rebuilt, whole)) == []


def test_an_escalation_past_the_node_cap_is_skipped():
    """An escalated re-solve that exceeds the node cap is passed over for
    the next blocked level. With one node no re-solve finishes, so on the
    draw of ``test_escalations_accumulate`` the repair gives up with its
    partial plan; three nodes reach the three escalations."""
    scenario, config = draw(np.random.default_rng(4242), 36)
    problem = build(scenario, config)
    sol = solve_mip(problem)
    capped = 0
    real = bnb.solve_mip

    def counted(*args, **kwargs):
        nonlocal capped
        try:
            return real(*args, **kwargs)
        except NodeCapExceeded:
            capped += 1
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bnb, "solve_mip", counted)
        with pytest.raises(RepairInfeasibleError, match="could not repair stock floors") as info:
            integerize(problem, sol, scenario, node_cap=1)
    assert capped > 0 and info.value.partial_plan is not None
    whole = integerize(problem, sol, scenario, node_cap=3)
    escalations = [note for note in whole.notes if note.startswith("escalated")]
    assert [note.rsplit(" ", 1)[1] for note in escalations] == ["+18.7556", "+37.5113", "+45.2145"]


@pytest.mark.parametrize("index", [0, 18, 35])
def test_an_unrepairable_draw_gives_up_within_its_binaries(index):
    scenario, config = draw(np.random.default_rng(4242), index)
    problem, _, outcome, calls = integerize_counting_solves(scenario, config)
    assert isinstance(outcome, RepairInfeasibleError)
    assert calls <= len(problem.binaries)
    assert calls < 12  # the depth cap's count of re-solves


FIRST_QUARTER_RESTRICTIONS = (
    (),
    ("force_base_striking",),
    ("force_base_blanking",),
    ("force_base_striking", "force_base_blanking"),
    ("forbid_extra_striking",),
)


def test_integerize_returns_plans_its_model_accepts():
    """``integerize`` returns a plan that passes ``check_solution`` on the
    model it repaired, pinned first-quarter totals included, or raises
    RepairInfeasibleError with the partial plan. Checked on 120 2x2
    draws, plain and under the restrictions the refinements inject.
    Draw 46 cannot rebuild its pinned coin total, so it raises, naming
    the row."""
    rng = np.random.default_rng(11)
    checked = 0
    for i in range(120):
        scenario, config = random_instance(rng)
        model = build(scenario, config)
        for kinds in FIRST_QUARTER_RESTRICTIONS:
            problem = restrict(model, tuple(InjectedConstraint(kind, 0) for kind in kinds))
            sol = solve_mip(problem)
            if sol.status != "optimal":
                continue
            try:
                whole = integerize(problem, sol, scenario)
            except RepairInfeasibleError as exc:
                assert exc.partial_plan is not None, (i, kinds)
                continue
            assert check_solution(problem, assignment_from_solution(problem, whole)) == [], (i, kinds)
            checked += 1
    assert checked >= 300  # most optimal solves repair

    scenario, config = draw(np.random.default_rng(11), 46)
    problem = restrict(build(scenario, config), (InjectedConstraint("force_base_striking", 0),))
    with pytest.raises(RepairInfeasibleError, match=r"force_base_striking\[0\]") as info:
        integerize(problem, solve_mip(problem), scenario)
    assert info.value.partial_plan is not None


def test_infeasible_scenarios_report_cleanly():
    scenario = Scenario(
        horizon=1,
        coin_specs=(CoinSpec("d1", alloy_weight=1.0, blanking_rate=0.1),),
        demand=[[500.0]],  # far beyond any capacity
        operating_floor=[[0.0]],
        vault_cap=50.0,
        safety_min=[0.0],
        initial_inventory=[10.0],
    )
    config = MintConfig(
        blanking_breakpoints=(10.0, 14.0),
        blanking_costs=(4.0,),
        annealing_base=30.0,
        annealing_max=45.0,
        annealing_cost=6.0,
        striking_breakpoints=(50.0, 60.0),
        striking_costs=(9.0,),
    )
    sol = solve_mip(build(scenario, config))
    assert sol.status == "infeasible"
    assert math.isnan(sol.objective)
    assert sol.plan is None


def test_warm_started_enumeration_matches_cold_solves(monkeypatch):
    """Every LP of the enumeration, reoptimized from the last optimal
    one, has the status and objective a cold solve gives it."""
    rng = np.random.default_rng(61)
    real = bnb.solve_lp
    compared = warm = 0

    def both(problem, *, bounds_override, warm_start):
        nonlocal compared, warm
        res = real(problem, bounds_override=bounds_override, warm_start=warm_start)
        cold = real(problem, bounds_override=bounds_override)
        assert res.status == cold.status
        if cold.status == "optimal":
            assert res.objective == pytest.approx(cold.objective, abs=1e-9)
        compared += 1
        warm += warm_start is not None
        return res

    monkeypatch.setattr(bnb, "solve_lp", both)
    for _ in range(20):
        exhaustive_objective(build(*random_instance(rng)))
    assert compared == 20 * 324
    assert warm > compared // 2


def test_enumeration_without_a_feasible_assignment_solves_nothing_cold(monkeypatch):
    """The first LP starts the dual from the slack basis and each proof
    of infeasibility hands its basis on, so a draw whose 324 LPs are all
    infeasible needs no cold solve."""
    rng = np.random.default_rng(7)
    random_instance(rng)  # the second draw is the one with no feasible assignment
    problem = build(*random_instance(rng))
    cold_solves = 0
    solve_cold = lpsolve._solve_cold

    def counted(*args):
        nonlocal cold_solves
        cold_solves += 1
        return solve_cold(*args)

    monkeypatch.setattr(lpsolve, "_solve_cold", counted)
    status, objective = exhaustive_objective(problem)
    assert status == "infeasible" and math.isnan(objective)
    assert cold_solves == 0
    assert solve_mip(problem).status == "infeasible"
    assert cold_solves > 0  # the tree search still solves cold


PIVOT_PATH = Path(__file__).parent / "golden" / "pivot_path.json"


def pivot_path_problems() -> dict:
    """The two fixtures, 20 random 2x2 draws and three 5-quarter,
    7-denomination draws of campaign size (107 rows), by name."""
    problems = {name: build(*load_fixture(name)) for name in ("tiny.json", "slack.json")}
    rng = np.random.default_rng(2026)
    for i in range(20):
        problems[f"random[{i}]"] = build(*random_instance(rng))
    rng = np.random.default_rng(2026)
    draws = [random_instance(rng, horizon=5, n_denoms=7) for _ in range(39)]
    for i in (5, 17, 38):  # trees of 15, 33 and 39 LPs
        problems[f"random5x7[{i}]"] = build(*draws[i])
    return problems


def lp_path(solve, problem) -> list:
    """Status, iteration count and final basis of every LP that
    ``solve(problem)`` solves through ``bnb``."""
    calls = []
    real = bnb.solve_lp

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append([res.status, res.iterations, list(res.basis)])
        return res

    bnb.solve_lp = spy
    try:
        solve(problem)
    finally:
        bnb.solve_lp = real
    return calls


def record_pivot_paths() -> dict:
    """The LP path of ``solve_mip`` on each of ``pivot_path_problems``."""
    return {name: lp_path(solve_mip, problem) for name, problem in pivot_path_problems().items()}


def test_tree_search_keeps_its_cold_pivot_path():
    """Branch and bound solves every node cold with Bland pricing, so its
    pivot path is pinned: the golden file was recorded from the solver
    before warm starts existed. To re-record after a deliberate change:
    ``json.dump(record_pivot_paths(), open(PIVOT_PATH, "w"))``."""
    with PIVOT_PATH.open() as fh:
        want = json.load(fh)
    got = record_pivot_paths()
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


WARM_PATH = Path(__file__).parent / "golden" / "warm_path.json"


def warm_path_problems() -> dict:
    """The 20 draws of the warm-versus-cold enumeration test and three
    4-denomination draws, by name."""
    rng = np.random.default_rng(61)
    problems = {f"random[{i}]": build(*random_instance(rng)) for i in range(20)}
    rng = np.random.default_rng(11)
    for i in range(3):
        problems[f"random4[{i}]"] = build(*random_instance(rng, n_denoms=4))
    return problems


def record_warm_paths() -> dict:
    """Per problem of ``warm_path_problems``: the count of enumeration
    LPs, their total iterations and a SHA-256 of every LP's status,
    iteration count and basis, in order. No floats go in, so the digest
    holds across BLAS builds."""
    paths = {}
    for name, problem in warm_path_problems().items():
        calls = lp_path(exhaustive_objective, problem)
        digest = hashlib.sha256(json.dumps(calls, separators=(",", ":")).encode()).hexdigest()
        paths[name] = [len(calls), sum(call[1] for call in calls), digest]
    return paths


def test_enumeration_keeps_its_warm_pivot_path():
    """The enumeration's warm starts are pinned as the tree search's cold
    path is: a faster restart must reach every LP's answer by the same
    pivots. To re-record after a deliberate change:
    ``json.dump(record_warm_paths(), open(WARM_PATH, "w"), indent=1)``."""
    with WARM_PATH.open() as fh:
        want = json.load(fh)
    got = record_warm_paths()
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


def every_binary_override_objective(problem):
    """The enumeration of ``exhaustive_objective`` with every binary in
    each LP's override, on a copy of the model that maximizes K and
    changes nothing else, and the bill summed over all the binaries."""
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


def test_enumeration_answers_match_an_override_of_every_binary():
    """Overriding only the levels an assignment switches on, on a copy of
    the model with every level off, gives the answers that overriding
    every binary gave, to the last bit: on the warm-path draws, on draws
    with ``forbid_extra_*`` restrictions, and on draws whose level costs
    are rebates of mixed magnitude. There the optimum switches several
    levels on, and the bill, summed in another order, changes the
    answer's last bits on one draw. No draw switches a level on through
    its bounds: the override of every binary would switch it off."""
    problems = list(warm_path_problems().values())
    rng = np.random.default_rng(11)
    kinds = ("forbid_extra_striking", "forbid_extra_blanking", "forbid_extra_annealing")
    for _ in range(10):
        injected = (InjectedConstraint(kinds[int(rng.integers(3))], int(rng.integers(2))),)
        problems.append(restrict(build(*random_instance(rng)), injected))
    rng = np.random.default_rng(1)
    for _ in range(10):
        problem = build(*random_instance(rng))
        objective = list(problem.objective)
        for col in problem.binaries:  # rebates: the optimum switches many levels on
            objective[col] = -float(rng.uniform(0.1, 1.0) * 10.0 ** rng.integers(-3, 1))
        problems.append(replace(problem, objective=tuple(objective)))
    statuses = set()
    for i, problem in enumerate(problems):
        got, want = exhaustive_objective(problem), every_binary_override_objective(problem)
        assert (got[0], repr(got[1])) == (want[0], repr(want[1])), i
        statuses.add(got[0])
    assert statuses == {"optimal", "infeasible"}


def two_pass_reference(problem):
    """The lexicographic solve as two searches and nothing else: minimize
    the bill, the model's objective, then maximize K with the bill
    pinned at that optimum by an equality row."""
    budget = [bnb.DEFAULT_NODE_CAP]
    k_col = problem.column_index("K")
    x1 = bnb._branch_and_bound(problem, node_budget=budget)
    if x1 is None:
        return bnb.Solution(status="infeasible", objective=math.nan, cost=math.nan, k=math.nan)
    bill = float(sum(problem.objective[col] * round(x1[col]) for col in problem.binaries))
    lock = bnb.Row(
        label="cost_lock[0]",
        coeffs=tuple((col, problem.objective[col]) for col in problem.binaries if problem.objective[col] != 0.0),
        relation="=",
        rhs=bill,
    )
    k_objective = tuple(-1.0 if col == k_col else 0.0 for col in range(len(problem.columns)))
    locked = replace(problem, objective=k_objective, rows=problem.rows + (lock,))
    return bnb._extract_solution(problem, bnb._branch_and_bound(locked, node_budget=budget))


def same_answer(a, b) -> bool:
    def key(sol):
        plan = None if sol.plan is None else (sol.plan.orders.tobytes(), sol.plan.inventory.tobytes())
        return (sol.status, repr(sol.objective), repr(sol.cost), repr(sol.k), sol.shifts, plan)

    return key(a) == key(b)


def count_lps(solve) -> int:
    calls = 0
    real = bnb.solve_lp

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bnb, "solve_lp", counted)
        solve()
    return calls


def test_zero_bill_attempt_returns_the_two_pass_answer():
    """Trying the K pass at a zero bill first is a shortcut, not a new
    answer: on every pivot-path problem, on the tiny scenario with costs
    whose bills lie 4 apart at K ceilings under and over that gap, and
    with a paid level fixed as the integerizer's escalation does,
    ``solve_mip`` returns exactly what the cost pass followed by the
    cost-locked K pass returns."""
    problems = pivot_path_problems()
    scenario, _ = load_fixture("tiny.json")
    coarse = MintConfig(
        blanking_breakpoints=(20.0, 28.0),
        blanking_costs=(8.0,),
        annealing_base=300.0,
        annealing_max=400.0,
        annealing_cost=12.0,
        striking_breakpoints=(70.0, 90.0),
        striking_costs=(20.0,),
    )
    for k_max in (2.0, 5.0):
        problems[f"coarse[{k_max}]"] = build(scenario, coarse, k_max=k_max)
    for name, problem in problems.items():
        assert same_answer(solve_mip(problem), two_pass_reference(problem)), name
    tiny = problems["tiny.json"]
    for paid in (("a", 1, 1), ("a", 0, 2), ("c", 0, 1), ("h", 1)):
        escalated = fix(tiny, tiny.column_index(*paid), 1.0)
        got = solve_mip(escalated)
        assert got.status == "optimal" and got.cost > 0.0
        assert same_answer(got, two_pass_reference(escalated)), paid


def test_a_level_that_costs_nothing_stays_free_at_a_zero_bill():
    """The zero-bill K pass switches off the levels that cost something,
    not every level: with the first striking level free, ``solve_mip``
    returns the two passes' answer, and on some draws that answer takes
    the free level for a K that the plans leaving it off cannot reach."""
    rng = np.random.default_rng(12)
    raised = 0
    for i in range(40):
        scenario, config = random_instance(rng)
        config = replace(config, striking_costs=(0.0,) + config.striking_costs[1:])
        problem = build(scenario, config, k_max=50.0)
        got, want = solve_mip(problem), two_pass_reference(problem)
        assert got.status == want.status, i
        if got.status != "optimal":
            continue
        assert (got.cost, got.shifts) == (want.cost, want.shifts), i
        assert got.k == pytest.approx(want.k, abs=1e-9), i
        free_off = problem
        for quarter in range(problem.horizon):
            free_off = fix(free_off, problem.ladders["striking", quarter][0], 0.0)
        without = solve_mip(free_off)
        raised += got.cost == without.cost == 0.0 and got.k > without.k + 1e-6
    assert raised >= 4


def test_a_zero_bill_solve_is_one_search():
    """The slack fixture needs no paid shift: its whole solve is the
    zero-bill K pass, one LP where the two passes take two. The tiny
    fixture needs one, so the failed attempt costs it one LP more."""
    slack = build(*load_fixture("slack.json"))
    assert count_lps(lambda: solve_mip(slack)) == 1
    assert count_lps(lambda: two_pass_reference(slack)) == 2
    tiny = build(*load_fixture("tiny.json"))
    assert count_lps(lambda: solve_mip(tiny)) == count_lps(lambda: two_pass_reference(tiny)) + 1


def test_a_negative_binary_cost_skips_the_zero_bill_attempt(monkeypatch):
    """A parsed model may pay for a shift with a negative cost; then a
    plan can bill less than 0, and the cost pass must run first. On the
    slack fixture with a rebate on one annealing shift, a zero-bill
    answer would be wrong: the optimum takes the rebate."""
    problem = build(*load_fixture("slack.json"))
    rebated = problem.column_index("h", 0)
    objective = tuple(-1.0 if col == rebated else c for col, c in enumerate(problem.objective))
    problem = replace(problem, objective=objective)
    searched = []
    search = bnb._branch_and_bound

    def spy(p, **kwargs):
        searched.append(p.objective == problem.objective)
        return search(p, **kwargs)

    monkeypatch.setattr(bnb, "_branch_and_bound", spy)
    got = solve_mip(problem)
    assert searched == [True, False]  # the cost pass, then the K pass at its bill
    assert got.status == "optimal" and got.cost == -1.0
    status, objective = exhaustive_objective(problem)
    assert status == "optimal"
    assert got.objective == pytest.approx(objective, abs=1e-9)


def test_a_k_reward_in_the_model_is_refused():
    """The model's objective is the bill, and the solver adds K's reward
    itself. A model whose objective rewards K, as ``build`` once wrote,
    would turn the bill pass into a search on ``bill - K``, so
    ``solve_mip`` refuses it. It refuses a cost on an order too: the
    bill pass would minimize it while the bill and the K passes ignore
    it."""
    problem = build(*load_fixture("tiny.json"))
    k_col, f_col = problem.column_index("K"), problem.column_index("f", 0, 0)
    assert problem.objective[k_col] == problem.objective[f_col] == 0.0
    for col_off_the_bill, cost in ((k_col, -1.0), (k_col, 1.0), (f_col, -100.0)):
        objective = tuple(cost if col == col_off_the_bill else c for col, c in enumerate(problem.objective))
        with pytest.raises(ValueError, match="bill"):
            solve_mip(replace(problem, objective=objective))


def rounded_costs(config: MintConfig, step: float = 4.0) -> MintConfig:
    """The config with every shift cost rounded to a multiple of ``step``,
    at least ``step``: bills then differ by ``step`` or more."""
    def r(cost):
        return max(step, step * round(cost / step))

    return replace(
        config,
        blanking_costs=tuple(map(r, config.blanking_costs)),
        annealing_cost=r(config.annealing_cost),
        striking_costs=tuple(map(r, config.striking_costs)),
    )


def test_the_objective_order_is_read_off_the_model():
    """Raising K's ceiling in a model's text past the bills' gap never
    buys a shift for more K: one search on ``bill - K`` would. Draw 12 of
    ``default_rng(2026)`` at costs in steps of 4 has a plan with no paid
    shift at K 3.87, while paying 4 reaches K 8.97. The enumeration
    ranks by bill, then K, and agrees."""
    rng = np.random.default_rng(2026)
    for _ in range(13):
        scenario, config = random_instance(rng)
    problem = build(scenario, rounded_costs(config))
    text = export_lp_text(problem)
    assert text.count("<= K <= 2.0\n") == 1
    raised = parse_lp_text(text.replace("<= K <= 2.0\n", "<= K <= 20.0\n"))
    got = solve_mip(raised)
    assert (got.status, got.cost, got.k) == ("optimal", 0.0, 3.868552817221955)
    assert exhaustive_objective(raised) == ("optimal", got.objective)


def test_tree_search_agrees_with_highs():
    """HiGHS, reading nothing but the model's rows, bounds and binaries,
    gives ``solve_mip``'s status, bill and K: on 5-quarter,
    7-denomination draws, far past what the enumeration can reach, and
    on 3-quarter draws at costs in steps of 4, whose bills lie further
    apart than K's ceiling."""
    pytest.importorskip("scipy")
    from oracles import highs_lexicographic

    rng = np.random.default_rng(2026)
    cases = [(build(*random_instance(rng, horizon=5, n_denoms=7)), 400) for _ in range(20)]
    rng = np.random.default_rng(2026)
    for _ in range(20):
        scenario, config = random_instance(rng, horizon=3, n_denoms=3)
        cases.append((build(scenario, rounded_costs(config)), bnb.DEFAULT_NODE_CAP))
    statuses = set()
    for i, (problem, node_cap) in enumerate(cases):
        got = solve_mip(problem, node_cap=node_cap)
        status, bill, k = highs_lexicographic(problem)
        assert got.status == status, i
        if status == "optimal":
            assert got.cost == pytest.approx(bill, rel=1e-6, abs=1e-6), i
            assert got.k == pytest.approx(k, rel=1e-6, abs=1e-6), i
        statuses.add(status)
    assert statuses == {"optimal", "infeasible"}


def equivalence_draws() -> list:
    """``(scenario, config, node_cap)`` for 20 3-quarter draws and for 10
    5-quarter, 7-denomination draws past the enumeration's reach."""
    rng = np.random.default_rng(12)
    draws = [(*random_instance(rng, horizon=3, n_denoms=3), bnb.DEFAULT_NODE_CAP) for _ in range(20)]
    rng = np.random.default_rng(2026)
    return draws + [(*random_instance(rng, horizon=5, n_denoms=7), 400) for _ in range(10)]


def equivalence_cases() -> list:
    """``(model, node_cap)`` for each of ``equivalence_draws``."""
    return [(build(scenario, config), node_cap) for scenario, config, node_cap in equivalence_draws()]


def test_equivalent_models_solve_to_the_same_answer():
    """Metamorphic relations: a model with its rows permuted, one with
    its stock floors as bounds instead of rows, one with each row scaled
    by a power of two, one with a looser copy of every capacity row, and
    one with its columns renumbered solve to the status, bill and K of
    the model itself."""
    from oracles import duplicate_capacity_rows, floors_as_bounds, permute_columns, permute_rows, scale_rows

    statuses = set()
    for i, (problem, node_cap) in enumerate(equivalence_cases()):
        want = solve_mip(problem, node_cap=node_cap)
        statuses.add(want.status)
        for name, equivalent in (
            ("rows permuted", permute_rows(problem, np.random.default_rng(1000 + i))),
            ("floors as bounds", floors_as_bounds(problem)),
            ("rows scaled", scale_rows(problem, np.random.default_rng(2000 + i))),
            ("capacity rows duplicated", duplicate_capacity_rows(problem)),
            ("columns permuted", permute_columns(problem, np.random.default_rng(3000 + i))),
        ):
            got = solve_mip(equivalent, node_cap=node_cap)
            assert got.status == want.status, (i, name)
            if want.status == "optimal":
                assert got.cost == want.cost, (i, name)
                assert got.k == pytest.approx(want.k, rel=1e-7), (i, name)
    assert statuses == {"optimal", "infeasible"}


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_a_new_coin_unit_gives_the_same_answer(factor):
    """Metamorphic relation on the data: counting coins in a unit
    ``factor`` times smaller, and their loads per unit ``factor`` times
    lighter, leaves the status, the bill and K of every draw unchanged."""
    from oracles import rescale_coins

    statuses = set()
    for i, (scenario, config, node_cap) in enumerate(equivalence_draws()):
        want = solve_mip(build(scenario, config), node_cap=node_cap)
        got = solve_mip(build(*rescale_coins(scenario, config, factor)), node_cap=node_cap)
        statuses.add(want.status)
        assert got.status == want.status, i
        if want.status == "optimal":
            assert got.cost == pytest.approx(want.cost, rel=1e-7), i
            assert got.k == pytest.approx(want.k, rel=1e-7), i
    assert statuses == {"optimal", "infeasible"}


def test_plan_of_and_shifts_of_read_back_an_assignment():
    """``plan_of`` and ``shifts_of`` give back the plan and shifts that
    ``assignment_from_solution`` writes, on the optimal equivalence draws
    and on the same draws with their columns renumbered: the solution's
    own shifts, and shifts that run through every level of each ladder."""
    from oracles import permute_columns

    optimal = 0
    for i, (problem, node_cap) in enumerate(equivalence_cases()):
        for model in (problem, permute_columns(problem, np.random.default_rng(3000 + i))):
            solution = solve_mip(model, node_cap=node_cap)
            if solution.status != "optimal":
                continue
            optimal += 1
            every_level = ShiftSelection(
                **{p: [(t + i) % (model.n_levels(p) + 1) for t in range(model.horizon)] for p in PROCESSES}
            )
            for shifts in (solution.shifts, every_level):
                x = assignment_from_solution(model, replace(solution, shifts=shifts))
                plan = plan_of(model, x)
                assert plan.orders.tobytes() == solution.plan.orders.tobytes(), i
                assert plan.inventory.tobytes() == solution.plan.inventory.tobytes(), i
                assert shifts_of(model, x) == shifts, i
    assert optimal == 2 * 26

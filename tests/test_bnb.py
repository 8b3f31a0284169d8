"""Tree search against enumeration, and integral repair behavior."""

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mintplan import (
    CoinSpec,
    InjectedConstraint,
    MintConfig,
    NodeCapExceeded,
    RepairInfeasibleError,
    Scenario,
    assignment_from_solution,
    build,
    check_solution,
    exhaustive_objective,
    integerize,
    load_scenario,
    random_instance,
    solve_mip,
)
from mintplan import bnb


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


def test_pruning_off_finds_the_same_objective():
    rng = np.random.default_rng(17)
    compared = 0
    while compared < 8:
        scenario, config = random_instance(rng, horizon=1)
        problem = build(scenario, config)
        fast = solve_mip(problem, pruning=True)
        full = solve_mip(problem, pruning=False)
        assert fast.status == full.status
        if fast.status == "optimal":
            assert fast.objective == pytest.approx(full.objective, abs=1e-7)
            compared += 1


def test_node_cap_is_enforced():
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    with pytest.raises(NodeCapExceeded):
        solve_mip(problem, node_cap=1)


def test_fixed_binaries_are_respected():
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    base = solve_mip(problem)
    col = problem.column_index("h", 0)  # force a pointless annealing shift
    forced = solve_mip(problem, fixed={col: 1.0})
    assert forced.status == "optimal"
    assert forced.shifts.annealing[0] == 1 or forced.cost >= base.cost + 6.0 - 1e-9
    assert forced.cost == pytest.approx(base.cost + 6.0, abs=1e-6)


def test_random_instance_is_deterministic():
    a_scenario, a_config = random_instance(np.random.default_rng(7))
    b_scenario, b_config = random_instance(np.random.default_rng(7))
    assert a_config == b_config
    assert np.array_equal(a_scenario.demand, b_scenario.demand)
    assert np.array_equal(a_scenario.initial_inventory, b_scenario.initial_inventory)
    assert a_scenario.disruptions == b_scenario.disruptions


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
            whole = integerize(sol, scenario, config)
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
        rebuilt = build(scenario, config, whole.injections)
        assert check_solution(rebuilt, assignment_from_solution(rebuilt, whole)) == []
    assert done == 15


def test_integerize_respects_coarser_granularity():
    scenario, config = load_fixture("slack.json")
    sol = solve_mip(build(scenario, config))
    whole = integerize(sol, scenario, config, granularity=5.0)
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
    sol = solve_mip(build(scenario, config))
    assert sol.status == "optimal"
    with pytest.raises(RepairInfeasibleError) as info:
        integerize(sol, scenario, config, granularity=1.0)
    assert info.value.partial_plan is not None  # the snapped plan is still reported


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
    sol = solve_mip(build(scenario, config, injections))
    assert sol.status == "optimal" and sol.cost == 0.0
    whole = integerize(sol, scenario, config)
    assert whole.cost == 0.0
    assert float(np.sum(whole.plan.orders[0])) == pytest.approx(70.0, abs=1e-9)
    assert whole.plan.inventory[0, 0] >= 15.0 - 1e-9
    assert any("under a pinned total" in note for note in whole.notes)
    rebuilt = build(scenario, config, injections)
    assert check_solution(rebuilt, assignment_from_solution(rebuilt, whole)) == []


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


PIVOT_PATH = Path(__file__).parent / "golden" / "pivot_path.json"


def record_pivot_paths() -> dict:
    """Status, iteration count and final basis of every LP that
    ``solve_mip`` solves on the two fixtures, 20 random 2x2 draws and
    three 5-quarter, 7-denomination draws of campaign size (107 rows)."""
    problems = {name: build(*load_fixture(name)) for name in ("tiny.json", "slack.json")}
    rng = np.random.default_rng(2026)
    for i in range(20):
        problems[f"random[{i}]"] = build(*random_instance(rng))
    rng = np.random.default_rng(2026)
    draws = [random_instance(rng, horizon=5, n_denoms=7) for _ in range(39)]
    for i in (5, 17, 38):  # trees of 14, 32 and 38 LPs
        problems[f"random5x7[{i}]"] = build(*draws[i])

    paths = {}
    real = bnb.solve_lp
    for name, problem in problems.items():
        calls = []

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            calls.append([res.status, res.iterations, list(res.basis)])
            return res

        bnb.solve_lp = spy
        try:
            solve_mip(problem)
        finally:
            bnb.solve_lp = real
        paths[name] = calls
    return paths


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

"""Guard behavior of the two first-quarter refinement procedures."""

import json
from importlib import resources

import numpy as np
import pytest

from mintplan import (
    InjectedConstraint,
    RepairInfeasibleError,
    assignment_from_solution,
    build,
    check_solution,
    integerize,
    load_scenario,
    procedure1,
    procedure2,
    random_instance,
    restrict,
    run_heuristics,
    scaled_breakpoints,
    solve_mip,
    solve_pipeline,
    usage,
)

PROCESSES = ("blanking", "annealing", "striking")


def load_fixture(name: str):
    text = resources.files("mintplan").joinpath(f"fixtures/{name}").read_text()
    return load_scenario(text)


def first_quarter_paid(solution) -> bool:
    return any(solution.shifts.levels(p)[0] != 0 for p in PROCESSES)


def test_procedure1_fills_base_striking_on_slack():
    """The slack fixture leaves first-quarter striking idle; filling it
    to base is free, while filling blanking has no feasible companion
    plan (the forced load exceeds what the demand profile can absorb)."""
    scenario, config = load_fixture("slack.json")
    events = []
    sol = solve_pipeline(scenario, config, use_proc1=True, events=events)
    assert [(e.procedure, e.process, e.accepted, e.reason) for e in events] == [
        ("procedure1", "striking", True, "cost unchanged"),
        ("procedure1", "blanking", False, "restricted model infeasible"),
    ]
    assert events[0].cost_delta == pytest.approx(0.0, abs=1e-9)
    assert events[1].cost_delta is None
    assert [(inj.kind, inj.quarter) for inj in sol.injections] == [("force_base_striking", 0)]
    assert sol.cost == 0.0
    base = scaled_breakpoints(config, scenario.disruptions, 0, "striking")[0]
    filled = usage(sol.plan.orders[0], scenario.coin_specs).striking_count
    assert filled == pytest.approx(base, abs=1e-6)


def test_procedure1_rejects_fill_that_moves_cost():
    """On the tiny fixture the only idle first-quarter capacity is
    blanking, and topping it up drags in a paid annealing shift."""
    scenario, config = load_fixture("tiny.json")
    base_sol = solve_pipeline(scenario, config)
    events = []
    refined = procedure1(scenario, build(scenario, config), base_sol, events=events)
    assert refined is base_sol
    assert len(events) == 1
    event = events[0]
    assert (event.process, event.accepted, event.reason) == ("blanking", False, "cost moved")
    assert event.cost_delta > 1e-6


def test_procedure2_postpones_paid_striking_on_tiny():
    """The paid striking shift moves out of the first quarter: same
    bill, but the spend now waits for one more forecast update."""
    scenario, config = load_fixture("tiny.json")
    events = []
    sol = solve_pipeline(scenario, config, use_proc2=True, events=events)
    assert [(e.procedure, e.process, e.accepted, e.reason) for e in events] == [
        ("procedure2", "striking", True, "restricted model feasible"),
    ]
    assert [(inj.kind, inj.quarter) for inj in sol.injections] == [("forbid_extra_striking", 0)]
    assert sol.cost == pytest.approx(9.0, abs=1e-9)
    assert all(sol.shifts.levels(p)[0] == 0 for p in PROCESSES)
    assert sol.shifts.levels("striking")[1] == 1
    base = scaled_breakpoints(config, scenario.disruptions, 0, "striking")[0]
    assert usage(sol.plan.orders[0], scenario.coin_specs).striking_count <= base + 1e-6


def test_procedure2_noop_without_paid_levels():
    scenario, config = load_fixture("slack.json")
    base_sol = solve_pipeline(scenario, config)
    assert not first_quarter_paid(base_sol)
    events = []
    refined = procedure2(scenario, build(scenario, config), base_sol, events=events)
    assert refined is base_sol
    assert events == []


def test_procedure1_skips_quarters_already_at_base():
    """Once striking is pinned to base, re-running the fill only
    revisits the blanking guard; the solution object passes through."""
    scenario, config = load_fixture("slack.json")
    filled = solve_pipeline(scenario, config, use_proc1=True)
    events = []
    again = procedure1(scenario, build(scenario, config), filled, events=events)
    assert again is filled
    assert [e.process for e in events] == ["blanking"]
    assert not events[0].accepted


def test_procedures_require_an_optimal_solution():
    import dataclasses

    scenario, config = load_fixture("slack.json")
    sol = dataclasses.replace(solve_pipeline(scenario, config), status="infeasible")
    with pytest.raises(ValueError, match="optimal solution"):
        procedure1(scenario, build(scenario, config), sol)
    with pytest.raises(ValueError, match="optimal solution"):
        procedure2(scenario, build(scenario, config), sol)
    with pytest.raises(ValueError, match="unknown heuristic order"):
        run_heuristics(scenario, build(scenario, config), solve_pipeline(scenario, config), order="sideways")


def test_order_controls_which_guards_fire_on_tiny():
    """Postponing first frees first-quarter striking, which the fill
    then pins to base; filling first finds nothing free to pin."""
    scenario, config = load_fixture("tiny.json")
    ev_21, ev_12 = [], []
    sol_21 = solve_pipeline(
        scenario, config, use_proc1=True, use_proc2=True, order="proc2-first", events=ev_21
    )
    sol_12 = solve_pipeline(
        scenario, config, use_proc1=True, use_proc2=True, order="proc1-first", events=ev_12
    )
    assert sol_21.cost == sol_12.cost == pytest.approx(9.0, abs=1e-9)
    assert [(inj.kind, inj.quarter) for inj in sol_21.injections] == [  # the model's order: rows, then bounds
        ("force_base_striking", 0),
        ("forbid_extra_striking", 0),
    ]
    assert [(inj.kind, inj.quarter) for inj in sol_12.injections] == [
        ("forbid_extra_striking", 0),
    ]
    assert [e.procedure for e in ev_21] == ["procedure2", "procedure1", "procedure1"]
    assert [e.procedure for e in ev_12] == ["procedure1", "procedure2"]


def test_accumulated_injections_all_hold_together():
    scenario, config = load_fixture("tiny.json")
    sol = solve_pipeline(scenario, config, use_proc1=True, use_proc2=True, order="proc2-first")
    problem = restrict(build(scenario, config), sol.injections)
    assert check_solution(problem, assignment_from_solution(problem, sol)) == []
    # both restrictions pin the same quarter: forced base is also the cap
    base = scaled_breakpoints(config, scenario.disruptions, 0, "striking")[0]
    assert usage(sol.plan.orders[0], scenario.coin_specs).striking_count == pytest.approx(base, abs=1e-6)


def test_pipeline_without_procedures_matches_plain_solve():
    scenario, config = load_fixture("tiny.json")
    problem = build(scenario, config)
    plain = integerize(problem, solve_mip(problem), scenario)
    piped = solve_pipeline(scenario, config)
    assert piped.cost == pytest.approx(plain.cost, abs=1e-9)
    assert piped.k == pytest.approx(plain.k, abs=1e-9)
    np.testing.assert_allclose(piped.plan.orders, plain.plan.orders, atol=1e-9)
    assert piped.injections == ()


@pytest.mark.parametrize("name", ["tiny.json", "slack.json"])
def test_pipeline_builds_one_model_for_every_restricted_solve(name, monkeypatch):
    from mintplan import mip

    scenario, config = load_fixture(name)
    builds = []
    real_build = mip.build

    def counting_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(mip, "build", counting_build)
    events = []
    solve_pipeline(scenario, config, use_proc1=True, use_proc2=True, events=events)
    assert len(events) >= 2  # restricted re-solves ran
    assert len(builds) == 1


def test_procedure1_never_moves_the_bill_random_sweep():
    """Across random instances the fill either leaves the extra-shift
    bill untouched or declines; every acceptance records a zero delta."""
    rng = np.random.default_rng(7)
    fired = solved = 0
    for _ in range(20):
        scenario, config = random_instance(rng)
        try:
            plain = solve_pipeline(scenario, config)
        except RepairInfeasibleError:
            continue
        if plain.status != "optimal":
            continue
        events = []
        try:
            refined = solve_pipeline(scenario, config, use_proc1=True, events=events)
        except RepairInfeasibleError:
            continue
        solved += 1
        fired += len(events)
        assert abs(refined.cost - plain.cost) <= 1e-6 * (1 + len(events))
        for event in events:
            if event.accepted:
                assert abs(event.cost_delta) <= 1e-6
    assert solved >= 10
    assert fired >= 5


def test_procedure2_results_stay_feasible_random_sweep():
    """Whenever the postponement is accepted the restricted model must
    hold exactly: no constraint drift, and the first quarter of every
    forbidden process stays inside base capacity."""
    rng = np.random.default_rng(11)
    fired = checked = 0
    for _ in range(60):
        scenario, config = random_instance(rng)
        try:
            plain = solve_pipeline(scenario, config)
        except RepairInfeasibleError:
            continue
        if plain.status != "optimal" or not first_quarter_paid(plain):
            continue
        events = []
        try:
            refined = solve_pipeline(scenario, config, use_proc2=True, events=events)
        except RepairInfeasibleError:
            continue
        checked += 1
        fired += len(events)
        problem = restrict(build(scenario, config), refined.injections)
        assert check_solution(problem, assignment_from_solution(problem, refined)) == []
        for inj in refined.injections:
            process = inj.kind.removeprefix("forbid_extra_")
            base = scaled_breakpoints(config, scenario.disruptions, inj.quarter, process)[0]
            used = usage(refined.plan.orders[inj.quarter], scenario.coin_specs).for_process(process)
            assert used <= base + 1e-6
    assert checked >= 3
    assert fired >= 3


def filled_striking(name: str, blanking_base: float | None = None):
    """A fixture's model and its integerized plan with first-quarter
    striking already pinned to base, as an accepted striking fill leaves
    it; ``blanking_base`` replaces the base blanking capacity."""
    doc = json.loads(resources.files("mintplan").joinpath(f"fixtures/{name}").read_text())
    if blanking_base is not None:
        doc["mint_config"]["blanking"]["breakpoints"][0] = blanking_base
    scenario, config = load_scenario(json.dumps(doc))
    model = build(scenario, config)
    problem = restrict(model, (InjectedConstraint("force_base_striking", 0),))
    filled = integerize(problem, solve_mip(problem), scenario)
    return scenario, model, filled


def count_solves(monkeypatch) -> list:
    from mintplan import bnb

    calls = []
    real = bnb.solve_mip

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bnb, "solve_mip", counted)
    return calls


def test_a_pinned_coin_count_rules_out_the_blanking_fill_without_a_solve(monkeypatch):
    """On the slack fixture, 70 pinned coins at blanking rates 0.2 and
    0.25 load blanking between 14 and 17.5, never its base of 20: the
    fill is recorded as infeasible without running the solver."""
    scenario, model, filled = filled_striking("slack.json")
    assert filled.injections == (InjectedConstraint("force_base_striking", 0),)
    calls = count_solves(monkeypatch)
    events = []
    assert procedure1(scenario, model, filled, events=events) is filled
    assert calls == []
    assert [(e.process, e.accepted, e.cost_delta, e.reason) for e in events] == [
        ("blanking", False, None, "restricted model infeasible"),
    ]


@pytest.mark.parametrize("blanking_base", [16.0, 17.5 + 1e-5])
def test_a_blanking_base_near_the_pinned_band_is_left_to_the_solver(blanking_base, monkeypatch):
    """At a base of 16, inside the 14 to 17.5 band, the two pinned rows
    may agree, so only the solver can say whether the fill holds; a miss
    within the certificate's margin is the solver's to judge too."""
    scenario, model, filled = filled_striking("slack.json", blanking_base=blanking_base)
    calls = count_solves(monkeypatch)
    events = []
    procedure1(scenario, model, filled, events=events)
    assert [e.process for e in events] == ["blanking"]
    assert len(calls) >= 1

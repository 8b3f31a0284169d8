"""Release gate: one printed verdict line per shipping requirement.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every test computes its verdict first and prints it before asserting,
so the report stays readable even when a criterion fails.
"""

import importlib.resources
import json
import time
from pathlib import Path

import numpy as np
import pytest

from mintplan import (
    CapacityExceededError,
    CoinSpec,
    EpochInput,
    MintConfig,
    RepairInfeasibleError,
    Scenario,
    SimulationSettings,
    annealing_cost,
    assignment_from_solution,
    blanking_cost,
    build,
    check_solution,
    compare,
    epoch_horizon,
    exhaustive_objective,
    generate_synthetic_scenario,
    load_scenario,
    random_instance,
    restrict,
    run_simulation,
    solve_lp,
    solve_mip,
    solve_pipeline,
    striking_cost,
    usage,
)

from oracles import lp_oracle, random_lp

GOLDEN = Path(__file__).parent / "golden" / "synthetic_21q.json"


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _fixture(name: str):
    text = importlib.resources.files("mintplan").joinpath(f"fixtures/{name}.json").read_text()
    return load_scenario(text)


def test_criterion_1_tree_search_matches_brute_force():
    """Sixty small random instances agree with full enumeration of the
    shift binaries, statuses included, inside the time budget."""
    rng = np.random.default_rng(4)
    t0 = time.time()
    compared = 0
    statuses = {"optimal": 0, "infeasible": 0}
    worst = 0.0
    ok = True
    detail = ""
    for _ in range(60):
        scenario, config = random_instance(rng)
        problem = build(scenario, config)
        want_status, want_objective = exhaustive_objective(problem)
        got = solve_mip(problem)
        if got.status != want_status:
            ok = False
            detail = f"status mismatch: solver {got.status}, enumeration {want_status}"
            break
        if want_status == "optimal":
            gap = abs(got.objective - want_objective)
            worst = max(worst, gap)
            if gap > 1e-6:
                ok = False
                detail = f"objective off by {gap:.3e}"
                break
        statuses[want_status] += 1
        compared += 1
    elapsed = time.time() - t0
    if ok and elapsed >= 30.0:
        ok = False
        detail = f"too slow: {elapsed:.1f}s"
    if ok and statuses["optimal"] < 20:
        ok = False
        detail = f"draw too degenerate: only {statuses['optimal']} optimal instances"
    if ok:
        detail = (f"{compared} instances ({statuses['optimal']} optimal, "
                  f"{statuses['infeasible']} infeasible), worst gap {worst:.2e}, "
                  f"{elapsed:.1f}s")
    _report(1, ok, detail)


def test_criterion_2_lp_solver_matches_vertex_enumeration():
    """120 dense random LPs agree with the vertex oracle on status and,
    when optimal, on objective to 1e-7."""
    rng = np.random.default_rng(123)
    statuses = {"optimal": 0, "infeasible": 0}
    worst = 0.0
    ok = True
    detail = ""
    t0 = time.time()
    for _ in range(120):
        problem = random_lp(rng)
        want_status, want_objective = lp_oracle(problem)
        got = solve_lp(problem)
        if got.status != want_status:
            ok = False
            detail = f"status mismatch: solver {got.status}, oracle {want_status}"
            break
        if want_status == "optimal":
            gap = abs(got.objective - want_objective) / max(1.0, abs(want_objective))
            worst = max(worst, gap)
            if gap > 1e-7:
                ok = False
                detail = f"objective off by {gap:.3e} (relative)"
                break
        statuses[want_status] += 1
    elapsed = time.time() - t0
    if ok and min(statuses.values()) < 5:
        ok = False
        detail = f"draw missed an outcome class: {statuses}"
    if ok:
        detail = (f"{sum(statuses.values())} LPs ({statuses['optimal']} optimal, "
                  f"{statuses['infeasible']} infeasible), "
                  f"worst gap {worst:.2e}, {elapsed:.1f}s")
    _report(2, ok, detail)


def test_criterion_3_every_pipeline_solution_audits_clean():
    """Whatever the pipeline returns, with or without refinement, the
    independent audit accepts at 1e-6 against a freshly built model."""
    runs: list[tuple[str, Scenario, MintConfig, object]] = []
    combos = (
        dict(),
        dict(use_proc1=True),
        dict(use_proc2=True),
        dict(use_proc1=True, use_proc2=True),
    )
    for name in ("tiny", "slack"):
        scenario, config = _fixture(name)
        for kwargs in combos:
            sol = solve_pipeline(scenario, config, **kwargs)
            runs.append((f"{name} {kwargs or '{}'}", scenario, config, sol))

    rng = np.random.default_rng(31)
    drawn = 0
    while drawn < 30:
        scenario, config = random_instance(rng)
        try:
            sol = solve_pipeline(scenario, config, use_proc1=True, use_proc2=True)
        except RepairInfeasibleError:
            continue
        if sol.status != "optimal":
            continue
        runs.append(("random", scenario, config, sol))
        drawn += 1

    ok = True
    detail = ""
    for name, scenario, config, sol in runs:
        rebuilt = restrict(build(scenario, config), sol.injections)
        violations = check_solution(rebuilt, assignment_from_solution(rebuilt, sol))
        if violations:
            ok = False
            detail = f"{name}: {violations[0]}"
            break
    if ok:
        detail = f"{len(runs)} solutions audited (8 fixture runs, {drawn} random), no violations"
    _report(3, ok, detail)


def test_criterion_4_refinement_contracts_hold():
    """Procedure 1 never moves the bill when it fires; procedure 2's
    output always satisfies the untouched model; both leave the plan
    alone when their guards stay quiet."""
    ok = True
    detail = ""

    # procedure 1: cost preserved across at least fifty firings
    rng = np.random.default_rng(2024)
    fired = 0
    draws = 0
    worst = 0.0
    while fired < 50 and draws < 400:
        scenario, config = random_instance(rng)
        draws += 1
        events: list = []
        try:
            base = solve_pipeline(scenario, config)
            refined = solve_pipeline(scenario, config, use_proc1=True, events=events)
        except RepairInfeasibleError:
            continue
        if base.status != "optimal" or refined.status != "optimal":
            continue
        if not any(e.procedure == "procedure1" for e in events):
            continue
        fired += 1
        gap = abs(refined.cost - base.cost)
        worst = max(worst, gap)
        if gap > 1e-6:
            ok = False
            detail = f"procedure 1 moved the bill by {gap:.3e}"
            break
    if ok and fired < 50:
        ok = False
        detail = f"only {fired} guard firings in {draws} draws"

    # procedure 2: every output feasible for the original model
    accepted = 0
    checked = 0
    if ok:
        rng = np.random.default_rng(11)
        for _ in range(150):
            scenario, config = random_instance(rng)
            events = []
            try:
                sol = solve_pipeline(scenario, config, use_proc2=True, events=events)
            except RepairInfeasibleError:
                continue
            if sol.status != "optimal":
                continue
            checked += 1
            if any(e.accepted and e.procedure == "procedure2" for e in events):
                accepted += 1
            original = build(scenario, config)
            violations = check_solution(original, assignment_from_solution(original, sol))
            if violations:
                ok = False
                detail = f"procedure 2 output violates the original model: {violations[0]}"
                break
        if ok:
            scenario, config = _fixture("tiny")
            events = []
            sol = solve_pipeline(scenario, config, use_proc2=True, events=events)
            if any(e.accepted and e.procedure == "procedure2" for e in events):
                accepted += 1
            original = build(scenario, config)
            if check_solution(original, assignment_from_solution(original, sol)):
                ok = False
                detail = "procedure 2 output on the paid fixture violates the original model"
        if ok and accepted < 3:
            ok = False
            detail = f"only {accepted} accepted postponements exercised"

    # guards quiet, plan untouched: the slack fixture pays nothing in
    # quarter one, so procedure 2 has nothing to postpone; a plan whose
    # first quarter already sits at base gives procedure 1 nothing to fill
    if ok:
        from mintplan import integerize, procedure1, procedure2

        scenario, config = _fixture("slack")
        model = build(scenario, config)
        whole = integerize(model, solve_mip(model), scenario)
        after2 = procedure2(scenario, model, whole)
        once = procedure1(scenario, model, whole)
        twice = procedure1(scenario, model, once)
        if after2 is not whole or twice is not once:
            ok = False
            detail = "a quiet guard still replaced the solution object"

    if ok:
        detail = (f"procedure 1: {fired} firings, worst cost move {worst:.2e}; "
                  f"procedure 2: {checked + 1} outputs feasible on the original model, "
                  f"{accepted} accepted postponements; quiet guards are no-ops")
    _report(4, ok, detail)


def test_criterion_5_rolling_protocol():
    """Horizons cycle 5,4,3,2; the stock audit is exact; the rolling
    total never undercuts the monolithic optimum on the same demand."""
    config = MintConfig(
        blanking_breakpoints=(20.0, 28.0, 34.0),
        blanking_costs=(4.0, 7.0),
        annealing_base=300.0,
        annealing_max=400.0,
        annealing_cost=6.0,
        striking_breakpoints=(70.0, 90.0, 105.0),
        striking_costs=(9.0, 15.0),
    )
    specs = (CoinSpec(denomination="penny", alloy_weight=2.5, blanking_rate=0.2),)
    settings = SimulationSettings(vault_cap=150.0, safety_min=(5.0,))
    demand = np.array([[60.0], [60.0], [95.0], [60.0], [60.0], [60.0], [95.0], [60.0]])
    history = [
        EpochInput(realized=demand[e], inventory=np.array([30.0]) if e == 0 else None)
        for e in range(8)
    ]
    report = run_simulation(history, config, specs, settings)

    ok = report.horizons == (5, 4, 3, 2, 5, 4, 3, 2)
    detail = "" if ok else f"horizons came out {report.horizons}"
    if ok and [epoch_horizon(e) for e in range(8)] != [5, 4, 3, 2, 5, 4, 3, 2]:
        ok = False
        detail = "epoch_horizon does not cycle 5,4,3,2"

    if ok:
        inv = report.initial_inventory.copy()
        for t in range(8):
            inv = inv + report.orders[t] - report.realized[t]
            if not (inv == report.inventories[t]).all():
                ok = False
                detail = f"stock audit drifted in quarter {t}"
                break

    monolithic_cost = float("nan")
    if ok:
        scenario = Scenario(
            horizon=8,
            coin_specs=specs,
            demand=demand,
            operating_floor=demand * settings.floor_fraction,
            vault_cap=settings.vault_cap,
            safety_min=np.array(settings.safety_min),
            initial_inventory=np.array([30.0]),
            disruptions=(),
        )
        monolithic = solve_pipeline(scenario, config)
        monolithic_cost = monolithic.cost
        if monolithic.status != "optimal":
            ok = False
            detail = "monolithic reference model did not solve"
        elif monolithic.cost > report.total_cost + 1e-9:
            ok = False
            detail = (f"rolling total {report.total_cost} beat the monolithic "
                      f"optimum {monolithic.cost}")
    if ok:
        detail = (f"horizons {report.horizons}, exact stock audit, rolling total "
                  f"{report.total_cost:g} >= monolithic {monolithic_cost:g}")
    _report(5, ok, detail)


def test_criterion_6_synthetic_campaign_beats_the_baseline():
    """The 21-quarter synthetic exercise reproduces the golden summary:
    a >=15% cheaper bill than the reactive baseline, strictly fewer
    extra-shift quarters, and full striking use wherever the first-quarter
    fill was accepted outside the disruption."""
    with GOLDEN.open() as fh:
        golden = json.load(fh)

    t0 = time.time()
    bundle = generate_synthetic_scenario(golden["seed"])
    report = run_simulation(list(bundle.history), bundle.config,
                            bundle.coin_specs, bundle.settings)
    summary = compare(report, bundle.baseline_orders, bundle.config, bundle.coin_specs)
    elapsed = time.time() - t0

    accepted_fill = [
        e for e, events in enumerate(report.heuristic_events)
        if any(ev.procedure == "procedure1" and ev.accepted for ev in events)
    ]

    checks = [
        (abs(summary.model_total - golden["model_total"]) <= 1e-6,
         f"model total {summary.model_total} != {golden['model_total']}"),
        (abs(summary.baseline_total - golden["baseline_total"]) <= 1e-6,
         f"baseline total {summary.baseline_total} != {golden['baseline_total']}"),
        (abs(summary.percent_reduction - golden["percent_reduction"]) <= 1e-6,
         f"reduction {summary.percent_reduction} != {golden['percent_reduction']}"),
        (summary.percent_reduction >= 15.0,
         f"reduction {summary.percent_reduction:.1f}% under the 15% bar"),
        (summary.model_extended_total == golden["model_extended_total"],
         f"model extended count {summary.model_extended_total}"),
        (summary.baseline_extended_total == golden["baseline_extended_total"],
         f"baseline extended count {summary.baseline_extended_total}"),
        (summary.model_extended_total < summary.baseline_extended_total,
         "extra-shift quarters not strictly fewer than the baseline"),
        (accepted_fill == golden["accepted_fill_epochs"],
         f"accepted fill epochs {accepted_fill}"),
        (list(report.infeasible_epochs) == golden["infeasible_epochs"],
         f"infeasible epochs {report.infeasible_epochs}"),
        (list(report.disrupted_quarters) == golden["disrupted_quarters"],
         f"disrupted quarters {report.disrupted_quarters}"),
        (len(accepted_fill) > 0, "no epoch ever accepted the first-quarter fill"),
        (elapsed < 60.0, f"too slow: {elapsed:.1f}s"),
    ]
    ok = True
    detail = ""
    for passed, message in checks:
        if not passed:
            ok = False
            detail = message
            break

    if ok:
        disrupted = set(golden["disrupted_quarters"])
        for e in accepted_fill:
            if e in disrupted:
                continue
            util = float(report.utilization[e, 2])
            if abs(util - 100.0) > 1e-6:
                ok = False
                detail = f"striking used {util}% in accepted epoch {e}"
                break
    if ok:
        detail = (f"bill {summary.model_total:g} vs {summary.baseline_total:g} "
                  f"({summary.percent_reduction:.1f}% lower), extended quarters "
                  f"{summary.model_extended_total} vs {summary.baseline_extended_total}, "
                  f"striking at 100% in {len(accepted_fill)} accepted epochs, "
                  f"{elapsed:.1f}s")
    _report(6, ok, detail)


def test_criterion_7_cost_functions():
    """Step costs are right-closed at every breakpoint, reject loads
    past the last level, never decrease, and usage is linear."""
    config = MintConfig(
        blanking_breakpoints=(20.0, 28.0, 34.0),
        blanking_costs=(4.0, 7.0),
        annealing_base=300.0,
        annealing_max=400.0,
        annealing_cost=6.0,
        striking_breakpoints=(70.0, 90.0, 105.0),
        striking_costs=(9.0, 15.0),
    )
    ok = True
    detail = ""
    eps = 1e-6

    cases = (
        (blanking_cost, (20.0, 28.0, 34.0), (0.0, 4.0, 7.0)),
        (annealing_cost, (300.0, 400.0), (0.0, 6.0)),
        (striking_cost, (70.0, 90.0, 105.0), (0.0, 9.0, 15.0)),
    )
    for fn, breaks, prices in cases:
        for i, b in enumerate(breaks):
            # right-closed: the breakpoint itself still belongs to level i
            if fn(b, config) != prices[i]:
                ok = False
                detail = f"{fn.__name__}({b}) != {prices[i]}"
                break
            if i + 1 < len(breaks) and fn(b + eps, config) != prices[i + 1]:
                ok = False
                detail = f"{fn.__name__}({b} + eps) != {prices[i + 1]}"
                break
        if not ok:
            break
        try:
            fn(breaks[-1] + eps, config)
            ok = False
            detail = f"{fn.__name__} accepted a load past the last level"
            break
        except CapacityExceededError:
            pass
        if fn(0.0, config) != 0.0:
            ok = False
            detail = f"{fn.__name__}(0) != 0"
            break

    if ok:
        rng = np.random.default_rng(7)
        for fn, breaks, _ in cases:
            draws = np.sort(rng.uniform(0.0, breaks[-1], size=200))
            values = [fn(float(v), config) for v in draws]
            if any(b > a for a, b in zip(values[1:], values)):
                ok = False
                detail = f"{fn.__name__} decreased on a rising load"
                break

    if ok:
        specs = (CoinSpec(denomination="d0", alloy_weight=2.5, blanking_rate=0.2),
                 CoinSpec(denomination="d1", alloy_weight=4.0, blanking_rate=0.3))
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.uniform(0.0, 40.0, size=2)
            b = rng.uniform(0.0, 40.0, size=2)
            lhs = usage(a + b, specs)
            ra, rb = usage(a, specs), usage(b, specs)
            if not (
                lhs.blanking_days == pytest.approx(ra.blanking_days + rb.blanking_days, abs=1e-12)
                and lhs.annealing_tons == pytest.approx(ra.annealing_tons + rb.annealing_tons, abs=1e-12)
                and lhs.striking_count == pytest.approx(ra.striking_count + rb.striking_count, abs=1e-12)
            ):
                ok = False
                detail = "usage is not additive in the order vector"
                break

    if ok:
        detail = ("right-closed at all breakpoints, beyond-last load rejected, "
                  "monotone on 600 draws, usage additive on 50 draws")
    _report(7, ok, detail)

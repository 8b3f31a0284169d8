"""Rolling-horizon simulator: epoch mechanics, audits, and reports."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from mintplan import (
    CoinSpec,
    Disruption,
    EpochInput,
    MintConfig,
    MintPlanError,
    Scenario,
    ScenarioFormatError,
    SimulationSettings,
    compare,
    dump_simulation,
    epoch_horizon,
    generate_synthetic_scenario,
    load_simulation,
    report_csv,
    run_simulation,
    solve_pipeline,
)

CFG = MintConfig(
    blanking_breakpoints=(20.0, 28.0, 34.0),
    blanking_costs=(4.0, 7.0),
    annealing_base=300.0,
    annealing_max=400.0,
    annealing_cost=6.0,
    striking_breakpoints=(70.0, 90.0, 105.0),
    striking_costs=(9.0, 15.0),
)
SPEC = (CoinSpec(denomination="penny", alloy_weight=2.5, blanking_rate=0.2),)
SETTINGS = SimulationSettings(vault_cap=150.0, safety_min=(5.0,))

# two demand spikes over eight quarters; the second one is absorbed
# by inventory built up in the quiet quarters between them
SPIKY_DEMAND = np.array([[60.0], [60.0], [95.0], [60.0], [60.0], [60.0], [95.0], [60.0]])


def spiky_history():
    return [
        EpochInput(realized=SPIKY_DEMAND[e], inventory=np.array([30.0]) if e == 0 else None)
        for e in range(8)
    ]


def test_horizon_cycle_restarts_at_five():
    assert [epoch_horizon(e) for e in range(8)] == [5, 4, 3, 2, 5, 4, 3, 2]
    assert epoch_horizon(8) == 5


def test_eight_epoch_run_bookkeeping():
    report = run_simulation(spiky_history(), CFG, SPEC, SETTINGS)
    assert report.horizons == (5, 4, 3, 2, 5, 4, 3, 2)
    assert report.perfect_foresight
    assert any("perfect foresight" in note for note in report.notes)
    assert report.infeasible_epochs == ()
    assert report.shortage_quarters == ()
    # inventory follows the executed recursion exactly, not approximately
    inv = report.initial_inventory.copy()
    for t in range(8):
        inv = inv + report.orders[t] - report.realized[t]
        assert (inv == report.inventories[t]).all()
    np.testing.assert_array_equal(report.accumulated_costs, np.cumsum(report.quarter_costs))
    assert report.total_cost == pytest.approx(9.0, abs=1e-9)
    assert report.extended_quarters == ((2, "striking"),)


def test_rolling_cost_never_beats_the_monolithic_plan():
    """The executed rolling orders are one feasible point of the full
    eight-quarter model, so the monolithic optimum is a lower bound."""
    report = run_simulation(spiky_history(), CFG, SPEC, SETTINGS)
    scenario = Scenario(
        horizon=8,
        coin_specs=SPEC,
        demand=SPIKY_DEMAND,
        operating_floor=SPIKY_DEMAND * SETTINGS.floor_fraction,
        vault_cap=SETTINGS.vault_cap,
        safety_min=np.array(SETTINGS.safety_min),
        initial_inventory=np.array([30.0]),
        disruptions=(),
    )
    monolithic = solve_pipeline(scenario, CFG)
    assert monolithic.status == "optimal"
    assert monolithic.cost <= report.total_cost + 1e-9


def test_inventory_audit_between_epochs():
    history = spiky_history()
    report = run_simulation(history, CFG, SPEC, SETTINGS)
    # handing the simulator the true stock is fine
    history[1] = EpochInput(realized=SPIKY_DEMAND[1], inventory=report.inventories[0])
    again = run_simulation(history, CFG, SPEC, SETTINGS)
    assert again.total_cost == report.total_cost
    # a book value that disagrees with the recursion is an error
    history[1] = EpochInput(realized=SPIKY_DEMAND[1], inventory=report.inventories[0] + 1.0)
    with pytest.raises(MintPlanError, match="does not match the simulated stock"):
        run_simulation(history, CFG, SPEC, SETTINGS)


def test_first_epoch_must_carry_inventory():
    history = [EpochInput(realized=np.array([40.0]))]
    with pytest.raises(MintPlanError, match="first epoch"):
        run_simulation(history, CFG, SPEC, SETTINGS)


def test_disruption_maps_to_its_absolute_quarter():
    demand = np.full((4, 1), 60.0)
    history = [
        EpochInput(realized=demand[e], inventory=np.array([30.0]) if e == 0 else None)
        for e in range(4)
    ]
    settings = SimulationSettings(
        vault_cap=150.0,
        safety_min=(5.0,),
        disruptions=(Disruption(quarter=2, process="striking", capacity_scale=0.8),),
    )
    report = run_simulation(history, CFG, SPEC, settings)
    assert report.disrupted_quarters == (2,)
    # the pre-build keeps the disrupted quarter free of paid shifts, and
    # utilization is measured against the scaled base (56 = 0.8 * 70)
    assert report.total_cost == 0.0
    assert report.orders[2, 0] == pytest.approx(56.0, abs=1e-9)
    assert report.utilization[2, 2] == pytest.approx(100.0, abs=1e-9)
    assert report.utilization[1, 2] == pytest.approx(100.0, abs=1e-9)


def test_infeasible_epoch_falls_back_to_capped_shortfall():
    demand = np.array([[200.0], [40.0], [40.0]])
    history = [
        EpochInput(realized=demand[e], inventory=np.array([30.0]) if e == 0 else None)
        for e in range(3)
    ]
    report = run_simulation(history, CFG, SPEC, SETTINGS)
    assert report.infeasible_epochs == (0,)
    # the fallback orders the top effective striking capacity, yet the
    # quarter still comes up short and stays short until stock recovers
    assert report.orders[0, 0] == pytest.approx(105.0, abs=1e-9)
    assert report.shortage_quarters == (0, 1, 2)
    assert any("no usable solution" in note for note in report.notes)
    assert any("clamped to zero" in note for note in report.notes)


@pytest.mark.parametrize("seed, baseline", [(1, 119.0), (2, 127.0), (3, 101.0), (4, 163.0)])
def test_default_benchmark_campaigns_never_fall_back(seed, baseline):
    """Seeds 1-4 complete the campaign benchmark's default window (seed 0
    has its golden test): every epoch gets a usable model solution, and
    no paid shift is needed. A change that sends replans to the fallback
    shows here before it shows as failed operations in the benchmark."""
    bundle = generate_synthetic_scenario(seed)
    report = run_simulation(bundle.history, bundle.config, bundle.coin_specs, bundle.settings)
    summary = compare(report, bundle.baseline_orders, bundle.config, bundle.coin_specs)
    assert report.infeasible_epochs == ()
    assert (summary.model_total, summary.baseline_total) == (0.0, baseline)


def test_solver_errors_fall_back_epoch_by_epoch():
    # a budget of no LP cannot even solve a root relaxation: every
    # epoch's search raises NodeCapExceeded, which must not end the run
    bundle = generate_synthetic_scenario(0, quarters=4)
    settings = replace(bundle.settings, node_cap=0)
    report = run_simulation(bundle.history, bundle.config, bundle.coin_specs, settings)
    assert report.infeasible_epochs == (0, 1, 2, 3)
    reasons = [note for note in report.notes if "no usable solution" in note]
    assert [note.split(":")[0] for note in reasons] == [f"epoch {e}" for e in range(4)]
    assert "(NodeCapExceeded: branch-and-bound exceeded its node cap)" in reasons[0]
    assert all("no usable solution (" in note for note in reasons)  # each names its reason


def test_opening_stock_above_the_vault_lifts_the_window_cap():
    history = [
        EpochInput(realized=np.array([20.0]), inventory=np.array([120.0])),
        EpochInput(realized=np.array([20.0])),
    ]
    settings = SimulationSettings(vault_cap=50.0, safety_min=(5.0,))
    report = run_simulation(history, CFG, SPEC, settings)
    assert sum("window cap lifted" in note for note in report.notes) == 2
    assert report.total_cost == 0.0


def test_compare_charges_and_annotates_an_oversized_baseline():
    report = run_simulation(spiky_history(), CFG, SPEC, SETTINGS)
    baseline = SPIKY_DEMAND.copy()
    baseline[2, 0] = 110.0  # beyond the 105 striking ceiling
    summary = compare(report, baseline, CFG, SPEC)
    assert summary.model_total == pytest.approx(9.0, abs=1e-9)
    # quarter 2: top striking level (15) plus a blanking shift (4, since
    # 0.2 * 110 = 22 > 20); quarter 6: striking level 2 (15)
    assert summary.baseline_total == pytest.approx(34.0, abs=1e-9)
    assert summary.percent_reduction == pytest.approx(100.0 * 25.0 / 34.0, abs=1e-9)
    assert summary.baseline_extended == {"blanking": 1, "annealing": 0, "striking": 2}
    assert summary.model_extended_total == 1
    assert len(summary.annotations) == 1
    assert "exceeds the top capacity" in summary.annotations[0]
    np.testing.assert_allclose(summary.baseline_accumulated[-1], 34.0)


def test_compare_rejects_misshapen_baselines():
    report = run_simulation(spiky_history(), CFG, SPEC, SETTINGS)
    with pytest.raises(ValueError, match="baseline orders"):
        compare(report, np.zeros((3, 1)), CFG, SPEC)


def test_simulation_file_round_trip():
    forecast0 = np.array([[58.0], [61.0], [93.0], [60.0], [59.0]])
    forecast1 = np.array([[60.0], [94.0], [61.0], [60.0]])
    history = [
        EpochInput(realized=SPIKY_DEMAND[0], forecast=forecast0, inventory=np.array([30.0])),
        EpochInput(realized=SPIKY_DEMAND[1], forecast=forecast1),
    ]
    settings = SimulationSettings(
        vault_cap=150.0,
        safety_min=(5.0,),
        disruptions=(Disruption(quarter=1, process="blanking", capacity_scale=0.9),),
        use_proc1=False,
        heuristic_order="proc1-first",
        granularity=0.5,
        node_cap=5,
    )
    text = dump_simulation(history, CFG, SPEC, settings)
    loaded_history, loaded_config, loaded_specs, loaded_settings = load_simulation(text)
    assert dump_simulation(loaded_history, loaded_config, loaded_specs, loaded_settings) == text
    assert loaded_config == CFG
    assert loaded_specs == SPEC
    assert loaded_settings == settings
    assert len(loaded_history) == 2
    np.testing.assert_array_equal(loaded_history[0].forecast, forecast0)
    np.testing.assert_array_equal(loaded_history[0].inventory, np.array([30.0]))
    assert loaded_history[1].inventory is None
    first = run_simulation(history, CFG, SPEC, settings)
    second = run_simulation(loaded_history, loaded_config, loaded_specs, loaded_settings)
    np.testing.assert_array_equal(first.orders, second.orders)
    assert first.total_cost == second.total_cost


def test_simulation_file_rejections():
    with pytest.raises(ScenarioFormatError, match="not valid JSON"):
        load_simulation("{nope")
    with pytest.raises(ScenarioFormatError, match="missing required key 'epochs'"):
        load_simulation('{"denominations": [], "mint_config": {}, "settings": {}}')
    text = dump_simulation(
        [EpochInput(realized=np.array([1.0]), inventory=np.array([1.0]))], CFG, SPEC, SETTINGS
    )
    with pytest.raises(ScenarioFormatError, match="non-finite"):
        load_simulation(text.replace("150.0", "NaN", 1))


@pytest.mark.parametrize(
    "setting, bad",
    [('"granularity": 1.0', '"granularity": 1e999'), ('"k_max": 2.0', '"k_max": -1')],
    ids=["granularity", "k_max"],
)
def test_simulation_file_rejects_unusable_solver_settings(setting, bad):
    text = dump_simulation(
        [EpochInput(realized=np.array([1.0]), inventory=np.array([1.0]))], CFG, SPEC, SETTINGS
    )
    assert setting in text
    name = setting.split(":")[0].strip('"')
    with pytest.raises(ScenarioFormatError, match=f"settings: {name} must be finite"):
        load_simulation(text.replace(setting, bad))


@pytest.mark.parametrize(
    "path, bad, where",
    [
        (("settings", "use_proc1"), "false", "settings.use_proc1"),
        (("settings", "vault_cap"), "900", "settings.vault_cap"),
        (("epochs", 1, "realized", 0), "12.5", "epochs[1].realized[0]"),
        (("settings", "safety_min", 0), True, "settings.safety_min[0]"),
        (("settings", "node_cap"), 2.5, "settings: node_cap"),
        (("settings", "node_cap"), True, "settings: node_cap"),
        (("settings", "node_cap"), -1, "settings: node_cap"),
    ],
    ids=[
        "flag_as_string",
        "number_as_string",
        "demand_as_string",
        "bool_as_number",
        "node_cap_as_float",
        "node_cap_as_bool",
        "negative_node_cap",
    ],
)
def test_simulation_file_rejects_wrong_json_types(path, bad, where):
    """A simulation file takes JSON numbers and booleans only, as a
    scenario file does: ``"false"`` would switch procedure 1 on."""
    history = [EpochInput(realized=np.array([1.0]), inventory=np.array([1.0])), EpochInput(realized=np.array([2.0]))]
    doc = json.loads(dump_simulation(history, CFG, SPEC, SETTINGS))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ScenarioFormatError, match=re.escape(where)):
        load_simulation(json.dumps(doc))


def test_report_csv_layout():
    report = run_simulation(spiky_history(), CFG, SPEC, SETTINGS)
    plain = report_csv(report).splitlines()
    assert plain[0] == (
        "quarter,horizon,order_penny,util_blanking,util_annealing,util_striking,"
        "quarter_cost,accumulated_cost,baseline_accumulated_cost"
    )
    assert len(plain) == 9
    assert plain[1].endswith(",")  # no baseline column without a comparison
    summary = compare(report, SPIKY_DEMAND, CFG, SPEC)
    with_summary = report_csv(report, summary).splitlines()
    assert len(with_summary) == 10
    assert with_summary[-1].startswith("summary,percent_reduction=")
    assert "model_extended=1" in with_summary[-1]


def test_epoch_input_arrays_are_read_only():
    epoch = EpochInput(realized=np.array([1.0, 2.0]), inventory=np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        epoch.realized[0] = 9.0
    with pytest.raises(ValueError):
        epoch.inventory[0] = 9.0


def test_synthetic_scenario_is_deterministic_and_well_formed():
    bundle = generate_synthetic_scenario(5)
    again = generate_synthetic_scenario(5)
    other = generate_synthetic_scenario(6)
    np.testing.assert_array_equal(bundle.realized, again.realized)
    np.testing.assert_array_equal(bundle.baseline_orders, again.baseline_orders)
    assert not np.array_equal(bundle.realized, other.realized)
    assert len(bundle.history) == 21
    assert bundle.realized.shape == (21, 7)
    assert len(bundle.coin_specs) == 7
    for e, epoch in enumerate(bundle.history):
        assert epoch.forecast.shape == (epoch_horizon(e), 7)
        assert (epoch.inventory is not None) == (e == 0)
    np.testing.assert_array_equal(bundle.history[0].forecast, again.history[0].forecast)
    assert bundle.settings.disruptions[0].process == "striking"


def test_synthetic_forecasts_collapse_to_realized_without_noise():
    bundle = generate_synthetic_scenario(2, quarters=8, n_denoms=3, forecast_noise=0.0)
    for e, epoch in enumerate(bundle.history):
        for offset in range(epoch.forecast.shape[0]):
            if e + offset < 8:
                np.testing.assert_array_equal(epoch.forecast[offset], bundle.realized[e + offset])

"""Data types, invariant checks, and the scenario file format."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mintplan import (
    CoinSpec,
    Disruption,
    MintConfig,
    Scenario,
    ScenarioFormatError,
    ShiftSelection,
    dump_scenario,
    load_scenario,
    scaled_breakpoints,
    scenario_to_dict,
    validate_scenario,
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

SPECS = (
    CoinSpec("penny", alloy_weight=2.5, blanking_rate=0.2),
    CoinSpec("nickel", alloy_weight=5.0, blanking_rate=0.25),
)


def make_scenario(**overrides) -> Scenario:
    base = dict(
        horizon=2,
        coin_specs=SPECS,
        demand=[[40.0, 26.0], [48.0, 32.0]],
        operating_floor=[[13.0, 9.0], [16.0, 11.0]],
        vault_cap=120.0,
        safety_min=[8.0, 5.0],
        initial_inventory=[18.0, 12.0],
        disruptions=(),
    )
    base.update(overrides)
    return Scenario(**base)


def test_coin_spec_validation():
    with pytest.raises(ValueError):
        CoinSpec("", alloy_weight=1.0, blanking_rate=0.1)
    with pytest.raises(ValueError):
        CoinSpec("x", alloy_weight=-1.0, blanking_rate=0.1)
    with pytest.raises(ValueError):
        CoinSpec("x", alloy_weight=1.0, blanking_rate=0.0)
    CoinSpec("x", alloy_weight=0.0, blanking_rate=0.1)  # mono-metal is fine


def test_config_ladder_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        MintConfig(
            blanking_breakpoints=(20.0, 20.0),
            blanking_costs=(4.0,),
            annealing_base=300.0,
            annealing_max=400.0,
            annealing_cost=6.0,
            striking_breakpoints=(70.0, 90.0),
            striking_costs=(9.0,),
        )
    with pytest.raises(ValueError, match="one cost per extra level"):
        MintConfig(
            blanking_breakpoints=(20.0, 28.0, 34.0),
            blanking_costs=(4.0,),
            annealing_base=300.0,
            annealing_max=400.0,
            annealing_cost=6.0,
            striking_breakpoints=(70.0, 90.0),
            striking_costs=(9.0,),
        )
    with pytest.raises(ValueError, match="non-decreasing"):
        MintConfig(
            blanking_breakpoints=(20.0, 28.0, 34.0),
            blanking_costs=(7.0, 4.0),
            annealing_base=300.0,
            annealing_max=400.0,
            annealing_cost=6.0,
            striking_breakpoints=(70.0, 90.0),
            striking_costs=(9.0,),
        )
    with pytest.raises(ValueError):  # annealing max must exceed base
        MintConfig(
            blanking_breakpoints=(20.0, 28.0),
            blanking_costs=(4.0,),
            annealing_base=300.0,
            annealing_max=300.0,
            annealing_cost=6.0,
            striking_breakpoints=(70.0, 90.0),
            striking_costs=(9.0,),
        )


def test_scenario_arrays_are_frozen():
    s = make_scenario()
    assert not s.demand.flags.writeable
    assert not s.initial_inventory.flags.writeable
    with pytest.raises(ValueError):
        s.demand[0, 0] = 99.0


def test_validate_scenario_accepts_good_data():
    assert validate_scenario(make_scenario()) == []


def test_validate_scenario_reports_shape_and_sign_problems():
    bad = make_scenario(demand=[[40.0, 26.0]])
    msgs = validate_scenario(bad)
    assert any("demand" in m for m in msgs)

    bad = make_scenario(demand=[[40.0, -1.0], [48.0, 32.0]])
    msgs = validate_scenario(bad)
    assert any("demand" in m and "quarter 0" in m for m in msgs)

    bad = make_scenario(initial_inventory=[100.0, 100.0])  # 200 > vault 120
    assert any("vault" in m for m in validate_scenario(bad))

    bad = make_scenario(disruptions=(Disruption(quarter=5, process="striking", capacity_scale=0.5),))
    assert any("disruption" in m for m in validate_scenario(bad))

    bad = make_scenario(disruptions=(Disruption(quarter=0, process="plating", capacity_scale=0.5),))
    assert any("process" in m for m in validate_scenario(bad))

    bad = make_scenario(disruptions=(Disruption(quarter=0, process="striking", capacity_scale=1.5),))
    assert any("capacity_scale" in m for m in validate_scenario(bad))


def test_scaled_breakpoints_compose():
    dis = (
        Disruption(quarter=1, process="striking", capacity_scale=0.5),
        Disruption(quarter=1, process="striking", capacity_scale=0.8),
        Disruption(quarter=0, process="blanking", capacity_scale=0.9),
    )
    assert scaled_breakpoints(CFG, dis, 1, "striking") == (28.0, 36.0, 42.0)
    assert scaled_breakpoints(CFG, dis, 0, "striking") == (70.0, 90.0, 105.0)
    assert scaled_breakpoints(CFG, dis, 0, "blanking") == (18.0, 25.2, 30.6)


def test_shift_selection_validation():
    with pytest.raises(ValueError):
        ShiftSelection(blanking=(0, 1), annealing=(0,), striking=(0, 0))
    with pytest.raises(ValueError):
        ShiftSelection(blanking=(0,), annealing=(2,), striking=(0,))
    sel = ShiftSelection(blanking=(1, 0), annealing=(0, 1), striking=(2, 0))
    assert sel.levels("striking") == (2, 0)
    with pytest.raises(ValueError):
        sel.levels("smelting")


def test_scenario_round_trip_is_exact():
    s = make_scenario(
        demand=[[40.1234567891234, 26.0], [48.0, 32.0]],
        disruptions=(Disruption(quarter=1, process="annealing", capacity_scale=0.7321),),
    )
    text = dump_scenario(s, CFG)
    s2, cfg2 = load_scenario(text)
    assert cfg2 == CFG
    assert s2.horizon == s.horizon
    assert s2.coin_specs == s.coin_specs
    assert s2.disruptions == s.disruptions
    assert np.array_equal(s2.demand, s.demand)  # bit-exact, not approx
    assert np.array_equal(s2.operating_floor, s.operating_floor)
    assert np.array_equal(s2.initial_inventory, s.initial_inventory)
    assert s2.vault_cap == s.vault_cap
    # and the canonical text is a fixed point
    assert dump_scenario(s2, cfg2) == text


def test_load_scenario_rejects_bad_documents():
    good = json.loads(dump_scenario(make_scenario(), CFG))

    with pytest.raises(ScenarioFormatError, match="not valid JSON"):
        load_scenario("{nope")

    doc = dict(good)
    del doc["vault_cap"]
    with pytest.raises(ScenarioFormatError, match="vault_cap"):
        load_scenario(json.dumps(doc))

    doc = dict(good)
    doc["vault_cap"] = True
    with pytest.raises(ScenarioFormatError, match="expected a number"):
        load_scenario(json.dumps(doc))

    doc = dict(good)
    doc["horizon"] = 2.5
    with pytest.raises(ScenarioFormatError, match="horizon"):
        load_scenario(json.dumps(doc))

    with pytest.raises(ScenarioFormatError, match="non-finite"):
        load_scenario(dump_scenario(make_scenario(), CFG).replace("120.0", "NaN", 1))

    doc = dict(good)
    doc["demand"] = [[40.0, 26.0]]  # wrong horizon
    with pytest.raises(ScenarioFormatError, match="invalid scenario"):
        load_scenario(json.dumps(doc))


def test_scenario_to_dict_uses_plain_types():
    doc = scenario_to_dict(make_scenario(), CFG)
    rebuilt = json.loads(json.dumps(doc))
    assert rebuilt == doc


def test_validate_scenario_rejects_nonfinite_and_bad_horizon():
    assert any("horizon" in m for m in validate_scenario(make_scenario(horizon=0, demand=np.zeros((0, 2)), operating_floor=np.zeros((0, 2)))))
    bad = make_scenario(vault_cap=math.inf)
    assert any("vault_cap" in m for m in validate_scenario(bad))


def test_readme_scenario_and_disruption_entry_parse():
    """The README's example file, with its example disruption entry added."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    entry = json.loads(re.search(r"`disruptions` entries such as\s+`(\{.*?\})`", readme, re.S).group(1))
    doc["disruptions"] = [entry]
    scenario, _ = load_scenario(json.dumps(doc))
    assert scenario.disruptions == (Disruption(quarter=1, process="striking", capacity_scale=0.62),)

"""Model assembly: rows, columns, bounds, and the LP text format."""

import re
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from mintplan import (
    CoinSpec,
    Disruption,
    InjectedConstraint,
    LpFormatError,
    MintConfig,
    Scenario,
    assignment_from_solution,
    build,
    check_solution,
    export_lp_text,
    generate_synthetic_scenario,
    load_scenario,
    parse_lp_text,
    restrict,
    run_simulation,
    scaled_breakpoints,
)
from mintplan import bnb
from mintplan.bnb import random_instance, solve_mip
from mintplan.mip import INJECTED_FAMILIES, level_capacity, level_column

GOLDEN = Path(__file__).parent / "golden"


def tiny():
    return load_scenario(resources.files("mintplan").joinpath("fixtures/tiny.json").read_text())

CFG1 = MintConfig(
    blanking_breakpoints=(20.0, 28.0),
    blanking_costs=(4.0,),
    annealing_base=300.0,
    annealing_max=400.0,
    annealing_cost=6.0,
    striking_breakpoints=(70.0, 90.0),
    striking_costs=(9.0,),
)

SPEC1 = (CoinSpec("penny", alloy_weight=2.5, blanking_rate=0.2),)


def one_quarter_scenario() -> Scenario:
    return Scenario(
        horizon=1,
        coin_specs=SPEC1,
        demand=[[50.0]],
        operating_floor=[[10.0]],
        vault_cap=100.0,
        safety_min=[5.0],
        initial_inventory=[20.0],
    )


def test_single_quarter_row_and_column_inventory():
    problem = build(one_quarter_scenario(), CFG1)
    assert len(problem.rows) == 9
    assert len(problem.columns) == 6
    labels = [row.label for row in problem.rows]
    assert labels == [
        "annealing_capacity[0]",
        "striking_capacity[0]",
        "striking_level_choice[0]",
        "blanking_capacity[0]",
        "blanking_level_choice[0]",
        "inventory_balance[0,0]",
        "terminal_stock[0]",
        "vault_capacity[0]",
        "operating_floor[0,0]",
    ]
    assert problem.columns == ("f[0,0]", "E[0,0]", "c[0,1]", "h[0]", "a[0,1]", "K")


def test_single_quarter_coefficients_by_hand():
    problem = build(one_quarter_scenario(), CFG1)
    by_label = problem.row_by_label

    row = by_label["annealing_capacity[0]"]
    assert row.relation == "<=" and row.rhs == 300.0
    assert dict(row.coeffs) == {0: 2.5, 3: -100.0}

    row = by_label["striking_capacity[0]"]
    assert row.relation == "<=" and row.rhs == 70.0
    assert dict(row.coeffs) == {0: 1.0, 4: -20.0}

    row = by_label["blanking_capacity[0]"]
    assert row.relation == "<=" and row.rhs == 20.0
    assert dict(row.coeffs) == {0: 0.2, 2: -8.0}

    row = by_label["inventory_balance[0,0]"]
    assert row.relation == "=" and row.rhs == 20.0 - 50.0
    assert dict(row.coeffs) == {0: -1.0, 1: 1.0}

    row = by_label["terminal_stock[0]"]
    assert row.relation == ">=" and row.rhs == 0.0
    assert dict(row.coeffs) == {1: 1.0, 5: -5.0}

    assert dict(by_label["vault_capacity[0]"].coeffs) == {1: 1.0}
    assert by_label["vault_capacity[0]"].rhs == 100.0
    assert by_label["operating_floor[0,0]"].relation == ">="
    assert by_label["operating_floor[0,0]"].rhs == 10.0

    # objective: the paid levels' bill, nothing on K
    assert problem.objective == (0.0, 0.0, 4.0, 6.0, 9.0, 0.0)
    assert problem.binaries == (2, 3, 4)
    assert problem.upper[0] == 90.0  # orders capped at the top striking breakpoint
    assert problem.upper[1] == 100.0  # stocks capped at the vault
    assert problem.k_max == 2.0


def test_row_count_scales_with_size():
    for T, D in ((1, 1), (2, 2), (3, 2), (2, 4)):
        scenario = Scenario(
            horizon=T,
            coin_specs=tuple(CoinSpec(f"d{i}", alloy_weight=1.0, blanking_rate=0.2) for i in range(D)),
            demand=np.full((T, D), 5.0),
            operating_floor=np.zeros((T, D)),
            vault_cap=500.0,
            safety_min=np.zeros(D),
            initial_inventory=np.full(D, 10.0),
        )
        problem = build(scenario, CFG1)
        assert len(problem.rows) == 6 * T + 2 * T * D + D
        nc = len(CFG1.level_costs("blanking"))
        na = len(CFG1.level_costs("striking"))
        assert len(problem.columns) == 2 * T * D + T * (nc + na + 1) + 1


def test_disruption_scales_capacity_rows():
    scenario = Scenario(
        horizon=1,
        coin_specs=SPEC1,
        demand=[[20.0]],
        operating_floor=[[0.0]],
        vault_cap=100.0,
        safety_min=[5.0],
        initial_inventory=[20.0],
        disruptions=(Disruption(quarter=0, process="striking", capacity_scale=0.5),),
    )
    problem = build(scenario, CFG1)
    row = problem.row_by_label["striking_capacity[0]"]
    assert row.rhs == 35.0
    assert dict(row.coeffs)[4] == -10.0  # level increment scales too
    assert problem.upper[0] == 45.0


def test_build_rejects_invalid_inputs():
    with pytest.raises(ValueError):
        build(one_quarter_scenario(), CFG1, k_max=-1.0)
    bad = Scenario(
        horizon=1,
        coin_specs=SPEC1,
        demand=[[-1.0]],
        operating_floor=[[0.0]],
        vault_cap=100.0,
        safety_min=[5.0],
        initial_inventory=[20.0],
    )
    with pytest.raises(ValueError, match="demand"):
        build(bad, CFG1)


def test_check_solution_flags_each_violation_kind():
    problem = build(one_quarter_scenario(), CFG1)
    good = np.array([60.0, 30.0, 0.0, 0.0, 0.0, 2.0])
    assert check_solution(problem, good) == []

    over_capacity = np.array([80.0, 50.0, 0.0, 0.0, 0.0, 0.0])
    assert "striking_capacity[0]" in check_solution(problem, over_capacity)

    broken_balance = np.array([60.0, 35.0, 0.0, 0.0, 0.0, 0.0])
    assert "inventory_balance[0,0]" in check_solution(problem, broken_balance)

    below_floor = np.array([35.0, 5.0, 0.0, 0.0, 0.0, 0.0])
    assert "operating_floor[0,0]" in check_solution(problem, below_floor)

    out_of_bounds = good.copy()
    out_of_bounds[5] = 3.0  # beyond k_max
    assert "bound[K]" in check_solution(problem, out_of_bounds)

    fractional = np.array([75.0, 45.0, 0.0, 0.0, 0.5, 0.0])
    assert "binary[a[0,1]]" in check_solution(problem, fractional)

    # every comparison with a NaN is false, so each test must fail on one
    assert check_solution(problem, np.full(6, np.nan)) == [
        "bound[f[0,0]]", "bound[E[0,0]]", "bound[c[0,1]]", "bound[h[0]]", "bound[a[0,1]]", "bound[K]",
        "binary[c[0,1]]", "binary[h[0]]", "binary[a[0,1]]",
    ]
    not_a_number = good.copy()
    not_a_number[3] = np.nan
    assert check_solution(problem, not_a_number) == ["bound[h[0]]", "binary[h[0]]"]

    with pytest.raises(ValueError):
        check_solution(problem, [1.0, 2.0])


def test_injected_constraints_add_labeled_rows():
    scenario = one_quarter_scenario()
    problem = restrict(build(scenario, CFG1), (InjectedConstraint("force_base_striking", 0),))
    labels = [row.label for row in problem.rows]
    assert "force_base_striking[0]" in labels
    row = problem.row_by_label["force_base_striking[0]"]
    assert row.relation == "=" and row.rhs == 70.0

    forbid_all = (
        InjectedConstraint("forbid_extra_striking", 0),
        InjectedConstraint("forbid_extra_blanking", 0),
        InjectedConstraint("forbid_extra_annealing", 0),
    )
    problem2 = restrict(build(scenario, CFG1), forbid_all)
    for col in (2, 3, 4):  # c[0,1], h[0], a[0,1]
        assert (problem2.lower[col], problem2.upper[col]) == (0.0, 0.0)
    assert not any(row.label.startswith("forbid_extra_") for row in problem2.rows)
    assert problem2.rows == build(scenario, CFG1).rows

    with pytest.raises(ValueError):
        InjectedConstraint("force_maximum_striking", 0)


def test_assignment_rejects_a_level_the_ladder_lacks():
    """A level past the top is no column to switch on; writing no level
    instead would blame the wrong quarter's capacity row."""
    scenario, config = tiny()
    problem = build(scenario, config)
    solution = solve_mip(problem)
    assert check_solution(problem, assignment_from_solution(problem, solution)) == []
    beyond = replace(solution, shifts=replace(solution.shifts, striking=(1, 3)))
    with pytest.raises(ValueError, match="striking level 3 exceeds"):
        assignment_from_solution(problem, beyond)


def test_models_of_one_layout_share_one_table():
    """Built, restricted and parsed models of one column layout share one
    table: each ladder's level columns, level 1 first (annealing's ``h[t]``
    is its level 1), and the order and stock columns. A bare LP has no
    plan columns but still finds its columns."""
    from oracles import random_lp

    model = build(*tiny())
    restricted = restrict(build(*tiny()), [InjectedConstraint("forbid_extra_striking", 1)])
    for other in (restricted, parse_lp_text(export_lp_text(model))):
        assert other.ladders is model.ladders and other.plan_columns is model.plan_columns
    assert dict(model.ladders) == {
        ("blanking", 0): (8, 9),
        ("blanking", 1): (10, 11),
        ("annealing", 0): (12,),
        ("annealing", 1): (13,),
        ("striking", 0): (14, 15),
        ("striking", 1): (16, 17),
    }
    orders, stocks = model.plan_columns
    assert orders.tolist() == [[0, 1], [2, 3]] and stocks.tolist() == [[4, 5], [6, 7]]
    with pytest.raises(ValueError):
        orders[0, 0] = 5  # shared by every model of the layout
    assert level_column(model, "annealing", 1, 1) == model.column_index("h", 1)
    assert level_column(model, "striking", 1, 2) == model.column_index("a", 1, 2)
    for process, level in (("striking", 3), ("annealing", 2), ("blanking", 0)):
        with pytest.raises(ValueError):
            level_column(model, process, 0, level)

    bare = random_lp(np.random.default_rng(0))
    assert bare.column_index("f", 0, 0) == 0 and bare.plan_columns is None and not bare.ladders
    assert model.binaries == tuple(range(8, 18)) and bare.binaries == ()


def test_a_model_reads_its_layout_off_its_column_names():
    """The names are the layout: renaming columns moves the plan and the
    binaries with them, and a name that is no column, a repeated name or
    a ladder that skips a level is refused when the model is made."""
    model = build(*tiny())
    names = list(model.columns)
    names[0], names[8] = names[8], names[0]  # f[0,0] and c[0,1] trade places
    swapped = replace(model, columns=tuple(names))
    assert swapped.plan_columns[0].tolist() == [[8, 1], [2, 3]]
    assert swapped.binaries == (0,) + tuple(range(9, 18))
    for bad, match in (
        (model.columns[:-1] + ("Q",), "unknown column name 'Q'"),
        (model.columns[:-1] + ("f[0,01]",), "unknown column name"),
        (("f[0,1]",) + model.columns[1:], "column 'f\\[0,1\\]' appears twice"),
        (tuple(name.replace("a[0,2]", "a[0,3]") for name in model.columns), "levels of quarter 0 must run 1 to 2"),
    ):
        with pytest.raises(ValueError, match=match):
            replace(model, columns=bad)


def tiny_with_a_disrupted_quarter():
    """The tiny fixture with every process of quarter 1 scaled by 0.62."""
    scenario, cfg = tiny()
    disruptions = tuple(
        Disruption(quarter=1, process=p, capacity_scale=0.62) for p in ("blanking", "annealing", "striking")
    )
    return replace(scenario, disruptions=disruptions), cfg


def test_restricting_twice_is_restricting_once_by_both():
    scenario, cfg = tiny_with_a_disrupted_quarter()
    model = build(scenario, cfg)
    first = (InjectedConstraint("forbid_extra_striking", 0), InjectedConstraint("force_base_blanking", 1))
    second = (InjectedConstraint("force_base_striking", 0), InjectedConstraint("forbid_extra_annealing", 1))
    once = restrict(model, first + second)
    twice = restrict(restrict(model, first), second)
    assert twice == once and twice.injected == once.injected
    # the model's order: force rows in row order, then forbids in column
    # order (blanking, annealing, then striking binaries)
    assert once.injected == (
        InjectedConstraint("force_base_blanking", 1),
        InjectedConstraint("force_base_striking", 0),
        InjectedConstraint("forbid_extra_annealing", 1),
        InjectedConstraint("forbid_extra_striking", 0),
    )
    assert model.injected == () and model.rows == build(scenario, cfg).rows
    with pytest.raises(ValueError, match="outside horizon"):
        restrict(model, (InjectedConstraint("force_base_striking", 2),))


@pytest.mark.parametrize("kind", ["force_base_striking", "forbid_extra_striking"])
def test_a_repeated_restriction_is_refused(kind):
    """A restriction already on the model, or given twice in one call,
    raises. Accepted, a second force row would repeat its label, which
    the LP text refuses, and a second forbid would change nothing."""
    model = build(*tiny())
    restriction = InjectedConstraint(kind, 0)
    once = restrict(model, (restriction,))
    assert once.injected == (restriction,)
    assert parse_lp_text(export_lp_text(once)).injected == once.injected
    with pytest.raises(ValueError, match=rf"restriction {kind}\[0\] is already on the model"):
        restrict(once, (restriction,))
    with pytest.raises(ValueError, match=rf"restriction {kind}\[0\] is already on the model"):
        restrict(model, (restriction, restriction))


def test_force_rows_copy_the_capacity_rows_of_a_disrupted_quarter():
    """A force row holds its capacity row's order terms, at that row's
    right-hand side: the quarter's scaled base capacity."""
    scenario, cfg = tiny_with_a_disrupted_quarter()
    model = build(scenario, cfg)
    problem = restrict(
        model, (InjectedConstraint("force_base_striking", 1), InjectedConstraint("force_base_blanking", 1))
    )
    D = scenario.n_denoms
    wanted = {
        "striking": tuple((model.column_index("f", 1, d), 1.0) for d in range(D)),
        "blanking": tuple((model.column_index("f", 1, d), scenario.coin_specs[d].blanking_rate) for d in range(D)),
    }
    for process, coeffs in wanted.items():
        capacity = model.row_by_label[f"{process}_capacity[1]"]
        force = problem.row_by_label[f"force_base_{process}[1]"]
        assert force.coeffs == coeffs
        assert set(coeffs) < set(capacity.coeffs)
        assert force.relation == "="
        assert force.rhs == capacity.rhs == cfg.breakpoints(process)[0] * 0.62
    assert problem.rows[: len(model.rows)] == model.rows
    assert problem.upper == model.upper


def test_level_capacity_is_the_base_plus_the_levels_own_step():
    scenario, cfg = tiny_with_a_disrupted_quarter()
    model = build(scenario, cfg)
    for t in range(scenario.horizon):
        for process in ("blanking", "annealing", "striking"):
            b = scaled_breakpoints(cfg, scenario.disruptions, t, process)
            assert level_capacity(model, process, t, 0) == b[0]
            for j in range(1, len(b)):
                assert level_capacity(model, process, t, j) == b[0] + (b[j] - b[j - 1])


def test_lp_text_round_trip_is_exact():
    scenario = Scenario(
        horizon=2,
        coin_specs=(
            CoinSpec("penny", alloy_weight=2.5, blanking_rate=0.2),
            CoinSpec("nickel", alloy_weight=5.0, blanking_rate=0.25),
        ),
        demand=[[40.0, 26.0], [48.0, 32.0]],
        operating_floor=[[13.0, 9.0], [16.0, 11.0]],
        vault_cap=120.0,
        safety_min=[8.0, 5.0],
        initial_inventory=[18.0, 12.0],
        disruptions=(Disruption(quarter=1, process="blanking", capacity_scale=0.7),),
    )
    cfg = MintConfig(
        blanking_breakpoints=(20.0, 28.0, 34.0),
        blanking_costs=(4.0, 7.0),
        annealing_base=300.0,
        annealing_max=400.0,
        annealing_cost=6.0,
        striking_breakpoints=(70.0, 90.0, 105.0),
        striking_costs=(9.0, 15.0),
    )
    problem = restrict(build(scenario, cfg), (InjectedConstraint("force_base_striking", 0),))
    text = export_lp_text(problem)
    parsed = parse_lp_text(text)
    assert parsed.columns == problem.columns
    assert parsed.objective == problem.objective
    assert parsed.rows == problem.rows
    assert parsed.lower == problem.lower
    assert parsed.upper == problem.upper
    assert parsed.binaries == problem.binaries
    assert parsed.injected == problem.injected
    assert export_lp_text(parsed) == text


def test_lp_text_round_trip_keeps_forbid_restrictions():
    """A forbid restriction travels as zero upper bounds in the text, and
    ``injected`` reads it off them on both sides, after the row-borne
    restrictions, so the parsed model equals the exported one."""
    scenario, cfg = tiny()
    injected = (
        InjectedConstraint("forbid_extra_striking", 1),
        InjectedConstraint("force_base_striking", 0),
        InjectedConstraint("forbid_extra_blanking", 0),
        InjectedConstraint("forbid_extra_annealing", 1),
    )
    problem = restrict(build(scenario, cfg), injected)
    text = export_lp_text(problem)
    assert "forbid_extra" not in text
    parsed = parse_lp_text(text)
    assert parsed == problem and parsed.injected == problem.injected
    assert parsed.injected == (
        InjectedConstraint("force_base_striking", 0),
        InjectedConstraint("forbid_extra_blanking", 0),
        InjectedConstraint("forbid_extra_annealing", 1),
        InjectedConstraint("forbid_extra_striking", 1),
    )
    assert export_lp_text(parsed) == text


def round_trip(problem):
    parsed = parse_lp_text(export_lp_text(problem))
    assert parsed == problem and parsed.injected == problem.injected
    return parsed


def test_lp_text_round_trips_the_fixtures_exactly():
    """Both fixtures, and a forbid given before a force: ``injected`` is
    read off the model on both sides, so it lists them in the model's
    order whatever order ``restrict`` took them in."""
    for name in ("tiny.json", "slack.json"):
        round_trip(build(*load_scenario(resources.files("mintplan").joinpath(f"fixtures/{name}").read_text())))
    forbid, force = InjectedConstraint("forbid_extra_striking", 1), InjectedConstraint("force_base_striking", 0)
    assert round_trip(restrict(build(*tiny()), (forbid, force))).injected == (force, forbid)


def test_lp_text_round_trips_restricted_random_draws_exactly():
    """300 random 2x2 and 3x3 draws, each restricted by a shuffled random
    subset of first-quarter restrictions, split at a random point:
    restricting by both parts in turn is restricting once by the whole,
    and the model survives an export and a parse unchanged."""
    rng = np.random.default_rng(26)
    for i in range(300):
        size = 2 + i % 2
        model = build(*random_instance(rng, horizon=size, n_denoms=size))
        chosen = [InjectedConstraint(kind, 0) for kind in INJECTED_FAMILIES if rng.random() < 0.5]
        rng.shuffle(chosen)
        cut = int(rng.integers(len(chosen) + 1))
        problem = restrict(model, chosen)
        assert restrict(restrict(model, chosen[:cut]), chosen[cut:]) == problem
        assert sorted(round_trip(problem).injected, key=str) == sorted(chosen, key=str)


def test_lp_text_round_trips_every_campaign_model_exactly(monkeypatch):
    """Every model the pipeline solves in campaign seeds 0-4 (built,
    restricted by the refinements, or escalated by the repair)."""
    solved = []

    def spy(problem, **kwargs):
        solved.append(problem)
        return solve_mip(problem, **kwargs)

    monkeypatch.setattr(bnb, "solve_mip", spy)
    for seed in range(5):
        bundle = generate_synthetic_scenario(seed)
        run_simulation(bundle.history, bundle.config, bundle.coin_specs, bundle.settings)
    assert any(problem.injected for problem in solved)
    for problem in solved:
        round_trip(problem)


def test_lp_text_partly_zeroed_ladder_recovers_no_forbid():
    """Only a whole ladder at upper bound 0 is a forbid restriction; a
    zero upper bound on one level stays a bound and nothing more."""
    scenario, cfg = tiny()
    problem = restrict(build(scenario, cfg), (InjectedConstraint("forbid_extra_striking", 1),))
    text = export_lp_text(problem)
    assert "0.0 <= a[0,2] <= 1.0" in text
    parsed = parse_lp_text(text.replace("0.0 <= a[0,2] <= 1.0", "0.0 <= a[0,2] <= 0.0"))
    assert parsed.upper[parsed.column_index("a", 0, 2)] == 0.0
    assert parsed.injected == (InjectedConstraint("forbid_extra_striking", 1),)


def test_lp_text_survives_awkward_floats():
    scenario = Scenario(
        horizon=1,
        coin_specs=(CoinSpec("d1", alloy_weight=1.0 / 3.0, blanking_rate=0.1 + 1e-14),),
        demand=[[7.0 / 3.0]],
        operating_floor=[[0.1 * 3]],
        vault_cap=1e3 + 1e-9,
        safety_min=[0.0],
        initial_inventory=[2.0 / 7.0],
    )
    problem = build(scenario, CFG1)
    parsed = parse_lp_text(export_lp_text(problem))
    assert parsed.rows == problem.rows
    assert parsed.upper == problem.upper


def test_parse_lp_text_rejects_malformed_documents():
    problem = build(one_quarter_scenario(), CFG1)
    text = export_lp_text(problem)

    with pytest.raises(LpFormatError):
        parse_lp_text("not an lp file\n")
    with pytest.raises(LpFormatError):
        parse_lp_text(text.replace("mintplan-lp v3", "mintplan-lp v4"))
    with pytest.raises(LpFormatError):
        parse_lp_text(text.replace("subject to\n", ""))
    with pytest.raises(LpFormatError):
        parse_lp_text(text.replace("K", "Q"))

    tiny_text = export_lp_text(build(*tiny()))
    for bad in (
        tiny_text.replace("  a[0,1]\n", "  a[0,1]\n  a[0,1]\n"),  # a level listed twice would be billed twice
        tiny_text.replace("  a[1,1]\n", "  a[1,1]\n  a[1,1]\n"),
        tiny_text.replace("\nend\n", "\n  f[0,0]\nend\n"),  # an order column is no shift level
        tiny_text.replace("  a[0,1]\n  a[0,2]\n", "  a[0,2]\n"),  # a continuous level would go unbilled
        older_text(tiny_text, "mintplan-lp v2"),  # only v3 is read
        tiny_text.replace(" a[1,2]\nsubject to\n", " a[1,2] + -1.0 K\nsubject to\n"),  # the solver rewards K
        # the bill prices shift levels only: a reward on an order would be
        # minimized by the bill pass but priced by neither _bill nor the oracle
        tiny_text.replace(" a[1,2]\nsubject to\n", " a[1,2] + -100.0 f[1,0]\nsubject to\n"),
        # a repeated label: the solver would obey both rows, level_capacity only the last
        tiny_text.replace("\nbounds\n", "\n  striking_capacity[0]: 1.0 f[0,0] + 1.0 f[0,1] <= 90.0\nbounds\n"),
        # a restriction row names one quarter
        tiny_text.replace("\nbounds\n", "\n  force_base_striking[0,1]: 1.0 f[0,0] = 3.0\nbounds\n"),
        # build never writes a non-finite number, and the solver cannot take one
        tiny_text.replace("<= 300.0", "<= nan", 1),  # capacity right-hand sides
        tiny_text.replace("<= 300.0", "<= inf", 1),
        tiny_text.replace("2.5 f[0,0]", "nan f[0,0]", 1),  # an order's load
        tiny_text.replace("4.0 c[0,1]", "nan c[0,1]", 1),  # a level's cost
        tiny_text.replace("<= K <= 2.0", "<= K <= inf", 1),  # the K ceiling
        # a column named twice in one sum: the last cost would win, and a
        # row would hold two terms on one column
        tiny_text.replace("4.0 c[0,1]", "4.0 c[0,1] + 9.0 c[0,1]", 1),
        tiny_text.replace("2.5 f[0,0]", "2.5 f[0,0] + 1.0 f[0,0]", 1),
        tiny_text.replace("a[0,2]", "a[0,3]"),  # a ladder that skips level 2
        # the solver reads K and the whole plan: a document without K, or
        # without one stock of the grid, would crash it
        re.sub(r" \+ -[0-9.]+ K", "", tiny_text.replace("  0.0 <= K <= 2.0\n", "")),
        "".join(line for line in tiny_text.splitlines(keepends=True) if "E[1,1]" not in line),
        # a level past the plan's last quarter has no quarter to be read back into
        tiny_text.replace("  0.0 <= K", "  0.0 <= h[2] <= 1.0\n  0.0 <= K").replace("  h[1]\n", "  h[1]\n  h[2]\n"),
    ):
        with pytest.raises(LpFormatError):
            parse_lp_text(bad)


def test_parse_lp_text_drops_zero_terms():
    """A row never stores a zero, and a zero term still counts when the
    sum names its column twice."""
    text = export_lp_text(build(*tiny()))
    parsed = parse_lp_text(text.replace("2.5 f[0,0]", "0.0 f[0,0]", 1))
    assert parsed.row_by_label["annealing_capacity[0]"].coeffs == ((1, 5.0), (12, -100.0))
    with pytest.raises(LpFormatError, match="appears twice"):
        parse_lp_text(text.replace("2.5 f[0,0]", "0.0 f[0,0] + 1.0 f[0,0]", 1))


def older_text(text: str, header: str) -> str:
    """A v3 export as an older version wrote it: ``header`` first, and
    the objective rewarding K at -1.0."""
    lines = text.split("\n")
    assert lines[0] == "mintplan-lp v3" and lines[1] == "minimize"
    return "\n".join([header, lines[1], lines[2] + " + -1.0 K", *lines[3:]])


def random_3q():
    """Three quarters, three denominations (one without alloy), three
    blanking and two striking levels, blanking scaled in quarter 1."""
    return random_instance(np.random.default_rng(1), horizon=3, n_denoms=3, n_blanking_levels=3, n_striking_levels=2)


@pytest.mark.parametrize(
    "golden, make",
    [
        ("build_tiny.lp", tiny),
        ("build_random_3q.lp", random_3q),
    ],
    ids=["tiny", "random_3q"],
)
def test_build_reproduces_the_recorded_model(golden, make):
    """Every row, coefficient, bound and binary of a several-quarter,
    several-level model, byte for byte."""
    scenario, config = make()
    assert export_lp_text(build(scenario, config)) == (GOLDEN / golden).read_text()

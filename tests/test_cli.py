"""Exit codes and output shapes of the command-line front end."""

import json
from importlib import resources

import numpy as np
import pytest

from mintplan import (
    CoinSpec,
    EpochInput,
    MintConfig,
    SimulationSettings,
    build,
    dump_scenario,
    dump_simulation,
    export_lp_text,
    load_scenario,
    parse_lp_text,
    random_instance,
)
from mintplan import cli
from mintplan.cli import main


def fixture_text(name: str) -> str:
    return resources.files("mintplan").joinpath(f"fixtures/{name}").read_text()


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(fixture_text("tiny.json"))
    return str(path)


def test_solve_text_output(tiny_path, capsys):
    assert main(["solve", tiny_path]) == 0
    out = capsys.readouterr().out
    assert "status: optimal" in out
    assert "extra-shift cost: 9.000000" in out
    assert "shifts (blk/ann/stk)" in out
    # two quarter rows follow the header
    rows = [line for line in out.splitlines() if line and line[0].isdigit() is False and line.startswith("      ")]
    assert len([line for line in out.splitlines() if line.lstrip().startswith(("0 ", "1 "))]) == 2


def test_solve_json_output(tiny_path, capsys):
    assert main(["solve", tiny_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"
    assert doc["cost"] == pytest.approx(9.0, abs=1e-9)
    assert doc["k"] == pytest.approx(2.0, abs=1e-9)
    assert np.asarray(doc["orders"]).shape == (2, 2)
    # the default heuristics postpone the paid striking shift
    assert doc["shifts"]["striking"] == [0, 1]


def test_solve_without_heuristics_keeps_first_quarter_shift(tiny_path, capsys):
    assert main(["solve", tiny_path, "--json", "--no-proc1", "--no-proc2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["shifts"]["striking"] == [1, 0]


def test_solve_infeasible_exits_one(tmp_path, capsys):
    doc = json.loads(fixture_text("tiny.json"))
    doc["demand"] = [[400.0, 300.0], [48.0, 32.0]]
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == 1
    assert "no feasible plan" in capsys.readouterr().err


def test_solve_exits_one_when_no_integral_plan_exists(tmp_path, capsys):
    """Draw 0 of ``random_instance(default_rng(4242))`` has a relaxed
    optimum whose stock floors no escalation repairs."""
    path = tmp_path / "draw0.json"
    path.write_text(dump_scenario(*random_instance(np.random.default_rng(4242))))
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == "no integral plan: could not repair stock floors within the available capacity\n"


def test_solve_rejects_a_non_finite_granularity(tiny_path, capsys):
    assert main(["solve", tiny_path, "--granularity", "inf"]) == 2
    assert "granularity must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("granularity", ["inf", "-1"])
def test_solve_rejects_a_bad_granularity_before_searching(granularity, tmp_path, capsys, monkeypatch):
    """An infeasible scenario must not hide a bad granularity behind
    "no feasible plan": the option is checked before any search."""
    from mintplan import bnb

    doc = json.loads(fixture_text("tiny.json"))
    doc["demand"] = [[400.0, 300.0], [48.0, 32.0]]
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(doc))
    searches = []
    monkeypatch.setattr(bnb, "solve_mip", lambda *args, **kwargs: searches.append(args))
    assert main(["solve", str(path), "--granularity", granularity]) == 2
    assert "granularity must be finite and positive" in capsys.readouterr().err
    assert searches == []


def test_solve_refuses_a_negative_node_cap(tiny_path, capsys):
    """A negative cap is bad usage, not a node cap the search ran into."""
    assert main(["solve", tiny_path, "--node-cap", "-3"]) == 2
    err = capsys.readouterr().err
    assert "node_cap must be an integer >= 0, got -3" in err
    assert "exceeded its node cap" not in err


def test_missing_file_exits_two(capsys):
    assert main(["solve", "/nonexistent/scenario.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{this is not json")
    assert main(["solve", str(path)]) == 2
    assert "bad input file" in capsys.readouterr().err


def test_export_lp_round_trips(tiny_path, tmp_path, capsys):
    out_path = tmp_path / "model.lp"
    assert main(["export-lp", tiny_path, "-o", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("mintplan-lp v3\nminimize\n")
    parsed = parse_lp_text(text)
    scenario, config = load_scenario(fixture_text("tiny.json"))
    direct = build(scenario, config)
    assert export_lp_text(parsed) == export_lp_text(direct) == text
    # without -o the text lands on stdout
    assert main(["export-lp", tiny_path]) == 0
    assert capsys.readouterr().out == text


def simulation_file(tmp_path) -> str:
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
    history = [
        EpochInput(realized=np.array([60.0]), inventory=np.array([30.0])),
        EpochInput(realized=np.array([60.0])),
    ]
    settings = SimulationSettings(vault_cap=150.0, safety_min=(5.0,))
    path = tmp_path / "sim.json"
    path.write_text(dump_simulation(history, config, specs, settings))
    return str(path)


def test_simulate_from_file(tmp_path, capsys):
    path = simulation_file(tmp_path)
    assert main(["simulate", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("quarter,horizon,order_penny,")
    assert len(lines) == 3


def test_simulate_override_flags_reach_the_settings(tmp_path):
    dumped = tmp_path / "sim.json"
    argv = ["simulate", "--synthetic", "0", "--no-proc1", "--heuristic-order", "proc1-first"]
    assert main(argv + ["--dump-input", str(dumped), "--csv", str(tmp_path / "report.csv")]) == 0
    settings = json.loads(dumped.read_text())["settings"]
    assert settings["use_proc1"] is False and settings["use_proc2"] is True
    assert settings["heuristic_order"] == "proc1-first"


def test_simulate_needs_exactly_one_source(tmp_path, capsys):
    path = simulation_file(tmp_path)
    assert main(["simulate"]) == 2
    assert main(["simulate", path, "--synthetic", "0"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err


def test_simulate_baseline_requires_synthetic(tmp_path, capsys):
    path = simulation_file(tmp_path)
    assert main(["simulate", path, "--baseline"]) == 2
    assert "--baseline needs a synthetic run" in capsys.readouterr().err


def test_simulate_rejects_baseline_before_running(tmp_path, capsys, monkeypatch):
    from mintplan import cli

    path = simulation_file(tmp_path)
    dump_path = tmp_path / "input.json"
    runs = []
    monkeypatch.setattr(cli, "run_simulation", lambda *args, **kwargs: runs.append(args))
    assert main(["simulate", path, "--baseline", "--dump-input", str(dump_path)]) == 2
    assert "--baseline needs a synthetic run" in capsys.readouterr().err
    assert runs == []
    assert not dump_path.exists()


def test_simulate_synthetic_with_baseline_csv(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    dump_path = tmp_path / "input.json"
    code = main(
        ["simulate", "--synthetic", "0", "--baseline", "--csv", str(csv_path), "--dump-input", str(dump_path)]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "total extra-shift cost" in err and "% lower" in err
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 23  # header, 21 quarters, summary
    assert lines[-1].startswith("summary,percent_reduction=")
    dumped = json.loads(dump_path.read_text())
    assert len(dumped["epochs"]) == 21


def test_oracle_zero_trials_warns_and_succeeds(capsys):
    assert main(["oracle", "--trials", "0"]) == 0
    assert "nothing was checked" in capsys.readouterr().err


def test_oracle_rejects_negative_trials(capsys):
    assert main(["oracle", "--trials", "-3"]) == 2
    assert "--trials must be 0 or more" in capsys.readouterr().err


def test_oracle_rejects_oversized_instances(capsys):
    assert main(["oracle", "--trials", "1", "--horizon", "5"]) == 2
    assert "too large for enumeration: 1,889,568 shift assignments" in capsys.readouterr().err


def test_oracle_size_guard_counts_assignments_not_binaries(capsys):
    """Two quarters of three blanking and three striking levels have 14
    binaries but (4 * 4 * 2)^2 = 1,024 assignments, under the ceiling."""
    args = ["oracle", "--trials", "1", "--horizon", "2", "--blanking-levels", "3", "--striking-levels", "3"]
    assert main(args) == 0
    assert "1 trials, 0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [("--horizon", 0), ("--horizon", -1), ("--denoms", 0), ("--denoms", -2), ("--blanking-levels", 0), ("--striking-levels", -1)],
)
def test_oracle_rejects_sizes_below_one(flag, value, capsys):
    # exit 1 would report a solver mismatch, so a bad size must not crash into it
    assert main(["oracle", "--trials", "1", flag, str(value)]) == 2
    assert capsys.readouterr().err == f"{flag} must be 1 or more, got {value}\n"


def test_oracle_small_run_agrees(capsys):
    code = main(
        ["oracle", "--trials", "3", "--seed", "1", "--horizon", "1", "--denoms", "1",
         "--blanking-levels", "1", "--striking-levels", "1"]
    )
    assert code == 0
    assert "3 trials, 0 mismatches" in capsys.readouterr().out


def test_oracle_rejects_a_negative_k_max(capsys):
    assert main(["oracle", "--trials", "3", "--k-max", "-1"]) == 2
    assert "k_max must be finite and >= 0" in capsys.readouterr().err


def test_oracle_builds_with_the_k_max_it_is_given(capsys, monkeypatch):
    ceilings = []
    real = cli.build

    def spy(scenario, config, **kwargs):
        problem = real(scenario, config, **kwargs)
        ceilings.append(problem.upper[problem.column_index("K")])
        return problem

    monkeypatch.setattr(cli, "build", spy)
    code = main(
        ["oracle", "--trials", "3", "--seed", "1", "--horizon", "1", "--denoms", "1",
         "--blanking-levels", "1", "--striking-levels", "1", "--k-max", "0.5"]
    )
    assert code == 0
    assert "3 trials, 0 mismatches" in capsys.readouterr().out
    assert ceilings == [0.5] * 3


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mintplan ")

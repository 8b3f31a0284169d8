"""Rolling-horizon simulation of the quarterly planning practice.

Planning runs in epochs. The first epoch solves a five-quarter model,
the next a four-quarter one, then three, then two, and the cycle
restarts at five: the mint commits a year ahead each time the annual
plan is refreshed and otherwise plans to the end of the committed year.
Only the first quarter of each epoch's plan is executed; inventory then
advances with the demand that actually materialized, and the next epoch
re-plans from there.

The simulator records executed orders, utilization against each
process's effective base capacity, the quarterly and accumulated
extra-shift bill, and every heuristic decision, so a run can be
compared against a naive reactive baseline.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import costs as costs_mod
from .bnb import DEFAULT_NODE_CAP, _check_node_cap
from .heuristics import HeuristicEvent, solve_pipeline
from .mip import DEFAULT_K_MAX
from .model import (
    PROCESSES,
    CoinSpec,
    Disruption,
    MintConfig,
    MintPlanError,
    Scenario,
    ScenarioFormatError,
    _number,
    _numlist,
    _numrows,
    _reject_constant,
    coin_specs_from_list,
    coin_specs_to_list,
    disruptions_from_list,
    disruptions_to_list,
    mint_config_from_dict,
    mint_config_to_dict,
    scaled_breakpoints,
    validate_scenario,
)

#: Epoch horizon lengths, restarting at five after the two-quarter epoch.
HORIZON_CYCLE = (5, 4, 3, 2)


@dataclass(frozen=True, eq=False)
class EpochInput:
    """Data available when one epoch is planned.

    ``realized`` is the demand that actually materializes in the
    epoch's executed quarter. ``forecast`` is the demand vintage used
    for planning, one row per quarter of the epoch's window; when
    omitted the simulator plans on realized demand (perfect foresight).
    ``inventory`` is the opening stock: required for the first epoch,
    optional afterwards, and audited against the simulated recursion
    when present.
    """

    realized: np.ndarray
    forecast: np.ndarray | None = None
    inventory: np.ndarray | None = None

    def __post_init__(self):
        realized = np.array(self.realized, dtype=float)
        realized.setflags(write=False)
        object.__setattr__(self, "realized", realized)
        if self.forecast is not None:
            forecast = np.array(self.forecast, dtype=float)
            forecast.setflags(write=False)
            object.__setattr__(self, "forecast", forecast)
        if self.inventory is not None:
            inventory = np.array(self.inventory, dtype=float)
            inventory.setflags(write=False)
            object.__setattr__(self, "inventory", inventory)


@dataclass(frozen=True)
class SimulationSettings:
    """Knobs shared by every epoch of a simulation run.

    ``disruptions`` use absolute simulation quarters and are mapped into
    each epoch's window. ``floor_fraction`` sets each quarter's minimum
    operating stock as a fraction of forecast demand.
    """

    vault_cap: float
    safety_min: tuple[float, ...]
    floor_fraction: float = 1.0 / 3.0
    disruptions: tuple[Disruption, ...] = ()
    use_proc1: bool = True
    use_proc2: bool = True
    heuristic_order: str = "proc2-first"
    granularity: float = 1.0
    k_max: float = DEFAULT_K_MAX
    node_cap: int = DEFAULT_NODE_CAP

    def __post_init__(self):
        object.__setattr__(self, "safety_min", tuple(float(v) for v in self.safety_min))
        object.__setattr__(self, "disruptions", tuple(self.disruptions))
        if not math.isfinite(self.vault_cap) or self.vault_cap < 0:
            raise ValueError(f"vault_cap must be finite and >= 0, got {self.vault_cap}")
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ValueError(f"floor_fraction must be in [0, 1], got {self.floor_fraction}")
        if not (math.isfinite(self.granularity) and self.granularity > 0):
            raise ValueError(f"granularity must be finite and positive, got {self.granularity}")
        if not math.isfinite(self.k_max) or self.k_max < 0:
            raise ValueError(f"k_max must be finite and >= 0, got {self.k_max}")
        if self.heuristic_order not in ("proc2-first", "proc1-first"):
            raise ValueError(f"unknown heuristic order {self.heuristic_order!r}")
        _check_node_cap(self.node_cap)


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Everything observed while simulating one history."""

    denominations: tuple[str, ...]
    horizons: tuple[int, ...]
    orders: np.ndarray            # (n, D) executed orders
    inventories: np.ndarray       # (n, D) end-of-quarter stocks
    realized: np.ndarray          # (n, D) demand that materialized
    initial_inventory: np.ndarray # (D,) opening stock of quarter 0
    utilization: np.ndarray       # (n, 3) percent of effective base: blanking, annealing, striking
    quarter_costs: np.ndarray     # (n,) extra-shift bill per executed quarter
    accumulated_costs: np.ndarray # (n,) running total
    extended_counts: dict
    extended_quarters: tuple[tuple[int, str], ...]
    heuristic_events: tuple[tuple[HeuristicEvent, ...], ...]
    infeasible_epochs: tuple[int, ...]
    shortage_quarters: tuple[int, ...]
    disrupted_quarters: tuple[int, ...]
    disruptions: tuple[Disruption, ...]
    perfect_foresight: bool
    notes: tuple[str, ...]

    @property
    def total_cost(self) -> float:
        return float(self.accumulated_costs[-1]) if len(self.accumulated_costs) else 0.0


@dataclass(frozen=True, eq=False)
class ComparisonSummary:
    """Model run versus a baseline ordering policy on the same demand."""

    model_total: float
    baseline_total: float
    percent_reduction: float
    model_extended: dict
    baseline_extended: dict
    model_extended_total: int
    baseline_extended_total: int
    baseline_accumulated: np.ndarray
    annotations: tuple[str, ...]


def epoch_horizon(epoch: int) -> int:
    return HORIZON_CYCLE[epoch % len(HORIZON_CYCLE)]


def _window_disruptions(disruptions: Sequence[Disruption], start: int, horizon: int) -> tuple[Disruption, ...]:
    out = []
    for dis in disruptions:
        if start <= dis.quarter < start + horizon:
            out.append(replace(dis, quarter=dis.quarter - start))
    return tuple(out)


def _perfect_forecast(history: Sequence[EpochInput], epoch: int, horizon: int, n_denoms: int) -> np.ndarray:
    rows = []
    for offset in range(horizon):
        j = epoch + offset
        rows.append(np.asarray(history[j].realized, dtype=float) if j < len(history) else np.zeros(n_denoms))
    return np.vstack(rows)


def _within_top_capacity(
    order: np.ndarray,
    config: MintConfig,
    disruptions: Sequence[Disruption],
    quarter: int,
    specs: Sequence[CoinSpec],
) -> np.ndarray:
    """The order scaled down, when some process would run past its top
    effective capacity, until every process fits."""
    u = costs_mod.usage(order, specs)
    scale = 1.0
    for process in PROCESSES:
        top = scaled_breakpoints(config, disruptions, quarter, process)[-1]
        val = u.for_process(process)
        if val > top:
            scale = min(scale, top / val)
    return order * scale


def _fallback_order(
    inventory: np.ndarray,
    forecast0: np.ndarray,
    floor0: np.ndarray,
    config: MintConfig,
    disruptions: Sequence[Disruption],
    quarter: int,
    specs: Sequence[CoinSpec],
    granularity: float,
) -> np.ndarray:
    """Shortfall-to-floor order used when an epoch's model cannot be
    solved: order what the floor and expected demand require, scaled
    down to the top effective capacity when needed."""
    need = np.maximum(0.0, forecast0 + floor0 - inventory)
    need = _within_top_capacity(need, config, disruptions, quarter, specs)
    return np.floor(need / granularity + 1e-12) * granularity


def run_simulation(
    history: Sequence[EpochInput],
    config: MintConfig,
    coin_specs: Sequence[CoinSpec],
    settings: SimulationSettings,
) -> SimulationReport:
    """Simulate the rolling practice over the given epochs.

    Each epoch builds a scenario over its window (5, 4, 3, 2, then 5
    again), solves the pipeline with the configured heuristics, executes
    the first quarter, and advances inventory with realized demand. An
    epoch whose model is infeasible, unrepairable or stopped by a solver
    error (a node or iteration cap, numerical trouble) falls back to a
    capped shortfall order, is recorded in ``infeasible_epochs`` and
    names its reason in ``notes``.
    """
    history = tuple(history)
    if not history:
        raise ValueError("history must contain at least one epoch")
    specs = tuple(coin_specs)
    D = len(specs)
    if history[0].inventory is None:
        raise MintPlanError("the first epoch must carry the opening inventory")

    inv = np.array(history[0].inventory, dtype=float)
    if inv.shape != (D,):
        raise MintPlanError(f"epoch 0 inventory must have shape {(D,)}, got {inv.shape}")
    initial_inventory = inv.copy()
    perfect = all(ep.forecast is None for ep in history)

    horizons: list[int] = []
    orders = np.zeros((len(history), D))
    inventories = np.zeros((len(history), D))
    realized_all = np.zeros((len(history), D))
    utilization = np.zeros((len(history), 3))
    quarter_costs = np.zeros(len(history))
    extended_counts = {p: 0 for p in PROCESSES}
    extended_quarters: list[tuple[int, str]] = []
    events_per_epoch: list[tuple[HeuristicEvent, ...]] = []
    infeasible: list[int] = []
    shortages: list[int] = []
    notes: list[str] = []

    for e, epoch in enumerate(history):
        h = epoch_horizon(e)
        horizons.append(h)
        realized = np.asarray(epoch.realized, dtype=float)
        if realized.shape != (D,):
            raise MintPlanError(f"epoch {e} realized demand must have shape {(D,)}, got {realized.shape}")
        realized_all[e] = realized

        if epoch.inventory is not None and e > 0:
            given = np.asarray(epoch.inventory, dtype=float)
            if not np.allclose(given, inv, atol=1e-6, rtol=0.0):
                raise MintPlanError(
                    f"epoch {e} inventory {given} does not match the simulated stock {inv}"
                )

        if epoch.forecast is not None:
            forecast = np.asarray(epoch.forecast, dtype=float)
            if forecast.shape != (h, D):
                raise MintPlanError(
                    f"epoch {e} forecast must have shape {(h, D)} for its window, got {forecast.shape}"
                )
        else:
            forecast = _perfect_forecast(history, e, h, D)

        window = _window_disruptions(settings.disruptions, e, h)
        floors = forecast * settings.floor_fraction

        planning_inv = np.maximum(inv, 0.0)
        if np.any(inv < -1e-9):
            notes.append(f"epoch {e}: negative opening stock clamped to zero for planning")
        vault = settings.vault_cap
        if float(planning_inv.sum()) > vault:
            vault = float(planning_inv.sum())
            notes.append(f"epoch {e}: opening stock exceeds the vault cap; window cap lifted to {vault:g}")

        scenario = Scenario(
            horizon=h,
            coin_specs=specs,
            demand=forecast,
            operating_floor=floors,
            vault_cap=vault,
            safety_min=np.asarray(settings.safety_min),
            initial_inventory=planning_inv,
            disruptions=window,
        )
        problems = validate_scenario(scenario)
        if problems:
            raise MintPlanError(f"epoch {e} produced an invalid window scenario: " + "; ".join(problems))

        events: list[HeuristicEvent] = []
        order = None
        try:
            sol = solve_pipeline(
                scenario,
                config,
                use_proc1=settings.use_proc1,
                use_proc2=settings.use_proc2,
                order=settings.heuristic_order,
                granularity=settings.granularity,
                k_max=settings.k_max,
                node_cap=settings.node_cap,
                events=events,
            )
            if sol.status == "optimal":
                order = np.array(sol.plan.orders[0])
            else:
                reason = f"the model is {sol.status}"
        except MintPlanError as err:  # a node or iteration cap, an unrepairable plan, numerical trouble
            reason = f"{type(err).__name__}: {err}"
        if order is None:
            infeasible.append(e)
            order = _fallback_order(
                planning_inv, forecast[0], floors[0], config, settings.disruptions, e, specs,
                settings.granularity,
            )
            notes.append(f"epoch {e}: model had no usable solution ({reason}); fell back to a shortfall order")
        events_per_epoch.append(tuple(events))

        orders[e] = order
        u = costs_mod.usage(order, specs)
        quarter_costs[e] = costs_mod.usage_cost(u, config, settings.disruptions, e)
        levels = costs_mod.usage_levels(u, config, settings.disruptions, e)
        for process, lvl in zip(PROCESSES, levels):
            if lvl > 0:
                extended_counts[process] += 1
                extended_quarters.append((e, process))
        for i, process in enumerate(PROCESSES):
            base = scaled_breakpoints(config, settings.disruptions, e, process)[0]
            used = u.for_process(process)
            if base > 0:
                utilization[e, i] = 100.0 * used / base
            else:
                utilization[e, i] = 0.0 if used <= 1e-9 else math.inf

        inv = inv + order - realized
        inventories[e] = inv
        if np.any(inv < -1e-9):
            shortages.append(e)

    if perfect:
        notes.append("forecast vintages absent: planned on realized demand (perfect foresight)")

    return SimulationReport(
        denominations=tuple(sp.denomination for sp in specs),
        horizons=tuple(horizons),
        orders=orders,
        inventories=inventories,
        realized=realized_all,
        initial_inventory=initial_inventory,
        utilization=utilization,
        quarter_costs=quarter_costs,
        accumulated_costs=np.cumsum(quarter_costs),
        extended_counts=extended_counts,
        extended_quarters=tuple(extended_quarters),
        heuristic_events=tuple(events_per_epoch),
        infeasible_epochs=tuple(infeasible),
        shortage_quarters=tuple(shortages),
        disrupted_quarters=tuple(sorted({d.quarter for d in settings.disruptions})),
        disruptions=settings.disruptions,
        perfect_foresight=perfect,
        notes=tuple(notes),
    )


def compare(
    report: SimulationReport,
    baseline_orders: np.ndarray,
    config: MintConfig,
    coin_specs: Sequence[CoinSpec],
) -> ComparisonSummary:
    """Cost the baseline orders on the same calendar and summarize.

    A baseline quarter whose usage exceeds even the top effective
    capacity is charged the top level's price and annotated rather than
    rejected, so ill-sized baselines still produce a comparison.
    """
    baseline = np.asarray(baseline_orders, dtype=float)
    n = len(report.horizons)
    if baseline.shape != report.orders.shape:
        raise ValueError(f"baseline orders must have shape {report.orders.shape}, got {baseline.shape}")

    baseline_costs = np.zeros(n)
    baseline_extended = {p: 0 for p in PROCESSES}
    annotations: list[str] = []
    for t in range(n):
        u = costs_mod.usage(baseline[t], coin_specs)
        total = 0.0
        for process in PROCESSES:
            breaks = scaled_breakpoints(config, report.disruptions, t, process)
            used = u.for_process(process)
            try:
                lvl = costs_mod.step_level(used, breaks, process, t)
            except costs_mod.CapacityExceededError:
                lvl = len(breaks) - 1
                annotations.append(
                    f"baseline quarter {t}: {process} usage {used:g} exceeds the top capacity "
                    f"{breaks[-1]:g}; charged the top level"
                )
            total += costs_mod.level_cost(config, process, lvl)
            if lvl > 0:
                baseline_extended[process] += 1
        baseline_costs[t] = total

    model_total = report.total_cost
    baseline_total = float(baseline_costs.sum())
    reduction = 100.0 * (baseline_total - model_total) / baseline_total if baseline_total > 0 else 0.0
    return ComparisonSummary(
        model_total=model_total,
        baseline_total=baseline_total,
        percent_reduction=reduction,
        model_extended=dict(report.extended_counts),
        baseline_extended=baseline_extended,
        model_extended_total=sum(report.extended_counts.values()),
        baseline_extended_total=sum(baseline_extended.values()),
        baseline_accumulated=np.cumsum(baseline_costs),
        annotations=tuple(annotations),
    )


# ---------------------------------------------------------------------------
# synthetic scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SyntheticScenario:
    """A generated multi-year exercise: epoch history, mint data,
    simulator settings, and a reactive baseline on the same demand."""

    history: tuple[EpochInput, ...]
    config: MintConfig
    coin_specs: tuple[CoinSpec, ...]
    settings: SimulationSettings
    realized: np.ndarray
    baseline_orders: np.ndarray


#: Synthetic demand's seasonal swing and relative quarterly noise, and the
#: quarter and capacity scale of its striking disruption.
SEASONAL_AMPLITUDE, DEMAND_NOISE = 0.22, 0.03
DISRUPTION_QUARTER, DISRUPTION_SCALE = 6, 0.62


def generate_synthetic_scenario(
    seed: int = 0,
    *,
    quarters: int = 21,
    n_denoms: int = 7,
    forecast_noise: float = 0.04,
) -> SyntheticScenario:
    """Deterministic multi-year scenario with seasonal demand and one
    mid-run striking disruption.

    Demand averages just under base striking capacity with seasonal
    peaks above it, so a reactive planner must buy extra shifts at every
    peak while a look-ahead planner can smooth production. Forecast
    vintages blur realized demand with seed-driven noise that grows with
    lead time (``forecast_noise=0`` reproduces realized demand exactly).
    The baseline reorders each quarter's shortfall against a one-third
    stock floor, capped at the quarter's top effective capacity.
    """
    rng = np.random.default_rng(seed)
    D, n = n_denoms, quarters

    config = MintConfig(
        blanking_breakpoints=(118.0, 134.0, 148.0),
        blanking_costs=(5.0, 9.0),
        annealing_base=1600.0,
        annealing_max=2100.0,
        annealing_cost=7.0,
        striking_breakpoints=(420.0, 500.0, 560.0),
        striking_costs=(11.0, 18.0),
    )
    rates = rng.uniform(0.16, 0.26, D)
    weights = np.zeros(D)
    bi_metal = max(1, D - D // 2)
    weights[D - bi_metal:] = rng.uniform(3.5, 6.5, bi_metal)
    specs = tuple(
        CoinSpec(denomination=f"d{i + 1}", alloy_weight=float(weights[i]), blanking_rate=float(rates[i]))
        for i in range(D)
    )

    shares = rng.uniform(0.6, 1.4, D)
    shares /= shares.sum()
    base_total = 0.93 * config.striking_breakpoints[0]
    phase = float(rng.integers(0, 4))
    horizon_pad = max(HORIZON_CYCLE)
    t_axis = np.arange(n + horizon_pad)
    season = 1.0 + SEASONAL_AMPLITUDE * np.sin(2.0 * math.pi * (t_axis + phase) / 4.0)
    noise = 1.0 + DEMAND_NOISE * rng.standard_normal((n + horizon_pad, D))
    realized_full = np.maximum(0.0, np.outer(season * base_total, shares) * noise)

    disruptions = (Disruption(quarter=DISRUPTION_QUARTER, process="striking", capacity_scale=DISRUPTION_SCALE),)
    initial_inventory = realized_full[0] / 3.0 + 0.45 * shares * base_total
    settings = SimulationSettings(
        vault_cap=float(2.4 * base_total),
        safety_min=tuple(0.25 * shares * base_total),
        disruptions=disruptions,
    )

    history = []
    for e in range(n):
        h = epoch_horizon(e)
        window = realized_full[e : e + h]
        if forecast_noise > 0.0:
            leads = (1.0 + np.arange(h) / 4.0)[:, None]
            blur = 1.0 + forecast_noise * leads * rng.standard_normal((h, D))
            forecast = np.maximum(0.0, window * blur)
        else:
            forecast = window.copy()
        history.append(
            EpochInput(
                realized=realized_full[e],
                forecast=forecast,
                inventory=initial_inventory if e == 0 else None,
            )
        )

    realized = realized_full[:n]
    baseline = np.zeros((n, D))
    inv = initial_inventory.copy()
    for t in range(n):
        floor_t = realized[t] * settings.floor_fraction
        need = np.maximum(0.0, realized[t] + floor_t - inv)
        baseline[t] = _within_top_capacity(need, config, disruptions, t, specs)
        inv = inv + baseline[t] - realized[t]

    return SyntheticScenario(
        history=tuple(history),
        config=config,
        coin_specs=specs,
        settings=settings,
        realized=realized,
        baseline_orders=baseline,
    )


# ---------------------------------------------------------------------------
# simulation file format and report CSV
# ---------------------------------------------------------------------------

def dump_simulation(
    history: Sequence[EpochInput],
    config: MintConfig,
    coin_specs: Sequence[CoinSpec],
    settings: SimulationSettings,
) -> str:
    """Canonical JSON text for a simulation input."""
    doc = {
        "denominations": coin_specs_to_list(coin_specs),
        "mint_config": mint_config_to_dict(config),
        "settings": {
            "vault_cap": float(settings.vault_cap),
            "safety_min": [float(v) for v in settings.safety_min],
            "floor_fraction": float(settings.floor_fraction),
            "granularity": float(settings.granularity),
            "k_max": float(settings.k_max),
            "use_proc1": settings.use_proc1,
            "use_proc2": settings.use_proc2,
            "heuristic_order": settings.heuristic_order,
            "node_cap": settings.node_cap,
            "disruptions": disruptions_to_list(settings.disruptions),
        },
        "epochs": [
            {
                "realized": [float(v) for v in ep.realized],
                "forecast": None if ep.forecast is None else [[float(v) for v in row] for row in ep.forecast],
                "inventory": None if ep.inventory is None else [float(v) for v in ep.inventory],
            }
            for ep in history
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_simulation(text: str) -> tuple[tuple[EpochInput, ...], MintConfig, tuple[CoinSpec, ...], SimulationSettings]:
    """Parse a simulation input document."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("simulation document must be a JSON object")
    for key in ("denominations", "mint_config", "settings", "epochs"):
        if key not in doc:
            raise ScenarioFormatError(f"missing required key {key!r}")

    specs = coin_specs_from_list(doc["denominations"])
    config = mint_config_from_dict(doc["mint_config"])

    st = doc["settings"]
    if not isinstance(st, dict):
        raise ScenarioFormatError("settings: expected an object")
    for key in ("vault_cap", "safety_min"):
        if key not in st:
            raise ScenarioFormatError(f"missing required key settings.{key!r}")
    for key in ("use_proc1", "use_proc2"):
        if not isinstance(st.get(key, True), bool):
            raise ScenarioFormatError(f"settings.{key}: expected true or false, got {st[key]!r}")
    try:
        # SimulationSettings checks the ranges, finiteness included
        settings = SimulationSettings(
            vault_cap=_number(st["vault_cap"], "settings.vault_cap"),
            safety_min=tuple(_numlist(st["safety_min"], "settings.safety_min")),
            floor_fraction=_number(st.get("floor_fraction", 1.0 / 3.0), "settings.floor_fraction"),
            granularity=_number(st.get("granularity", 1.0), "settings.granularity"),
            k_max=_number(st.get("k_max", DEFAULT_K_MAX), "settings.k_max"),
            use_proc1=st.get("use_proc1", True),
            use_proc2=st.get("use_proc2", True),
            heuristic_order=str(st.get("heuristic_order", "proc2-first")),
            node_cap=st.get("node_cap", DEFAULT_NODE_CAP),
            disruptions=disruptions_from_list(st.get("disruptions", []), "settings.disruptions"),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"settings: {exc}") from exc

    epochs_doc = doc["epochs"]
    if not isinstance(epochs_doc, list) or not epochs_doc:
        raise ScenarioFormatError("epochs: expected a non-empty list")
    history = []
    for i, ed in enumerate(epochs_doc):
        if not isinstance(ed, dict) or "realized" not in ed:
            raise ScenarioFormatError(f"epochs[{i}]: expected an object with a realized vector")
        here = f"epochs[{i}]"
        try:
            history.append(
                EpochInput(
                    realized=_numlist(ed["realized"], f"{here}.realized"),
                    forecast=None if ed.get("forecast") is None else _numrows(ed["forecast"], f"{here}.forecast"),
                    inventory=None if ed.get("inventory") is None else _numlist(ed["inventory"], f"{here}.inventory"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"{here}: {exc}") from exc
    return tuple(history), config, specs, settings


def report_csv(report: SimulationReport, comparison: ComparisonSummary | None = None) -> str:
    """Render a report (and optional baseline comparison) as CSV.

    One row per executed quarter: orders per denomination, utilization
    per process against the effective base capacity, the quarter's
    extra-shift bill, and the running totals; a final summary line
    carries the percent reduction and extended-capacity counts when a
    comparison is given.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (
        ["quarter", "horizon"]
        + [f"order_{d}" for d in report.denominations]
        + ["util_blanking", "util_annealing", "util_striking"]
        + ["quarter_cost", "accumulated_cost", "baseline_accumulated_cost"]
    )
    writer.writerow(header)
    for t in range(len(report.horizons)):
        row = [t, report.horizons[t]]
        row += [f"{v:.6f}" for v in report.orders[t]]
        row += [f"{v:.6f}" for v in report.utilization[t]]
        row += [f"{report.quarter_costs[t]:.6f}", f"{report.accumulated_costs[t]:.6f}"]
        row += [f"{comparison.baseline_accumulated[t]:.6f}"] if comparison is not None else [""]
        writer.writerow(row)
    if comparison is not None:
        detail_model = ";".join(f"{p}:{comparison.model_extended[p]}" for p in PROCESSES)
        detail_base = ";".join(f"{p}:{comparison.baseline_extended[p]}" for p in PROCESSES)
        writer.writerow(
            [
                "summary",
                f"percent_reduction={comparison.percent_reduction:.4f}",
                f"model_extended={comparison.model_extended_total}",
                f"baseline_extended={comparison.baseline_extended_total}",
                f"model_extended_detail={detail_model}",
                f"baseline_extended_detail={detail_base}",
            ]
        )
    return buf.getvalue()

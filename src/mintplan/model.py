"""Domain types and scenario I/O for quarterly coin-minting plans.

Units are fixed package-wide: coin quantities in millions of pieces,
alloy throughput in tons, blanking effort in working days, money in
plain currency units. A planning problem is a :class:`Scenario`
(demand, floors, inventory limits, disruptions) paired with a
:class:`MintConfig` (capacity ladders and extra-shift prices shared by
every quarter).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Process names, in the order blanks move through the shop.
PROCESSES = ("blanking", "annealing", "striking")

#: Slack when comparing a usage value against a capacity breakpoint.
BOUNDARY_TOL = 1e-9


class MintPlanError(Exception):
    """Base class for errors raised by this package."""


class ScenarioFormatError(MintPlanError):
    """A scenario document is malformed or violates data invariants."""


def _frozen_array(values, *, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CoinSpec:
    """Per-denomination physical data.

    ``alloy_weight`` is tons of copper alloy per million coins (zero for
    mono-metallic pieces, which skip annealing). ``blanking_rate`` is
    working days of blanking-line time per million coins.
    """

    denomination: str
    alloy_weight: float
    blanking_rate: float

    def __post_init__(self):
        if not self.denomination:
            raise ValueError("denomination id must be non-empty")
        if not math.isfinite(self.alloy_weight) or self.alloy_weight < 0:
            raise ValueError(f"alloy_weight must be finite and >= 0, got {self.alloy_weight}")
        if not math.isfinite(self.blanking_rate) or self.blanking_rate <= 0:
            raise ValueError(f"blanking_rate must be finite and > 0, got {self.blanking_rate}")


def coin_loads(specs: Sequence[CoinSpec]) -> dict[str, np.ndarray]:
    """What one million coins of each denomination load onto each
    process, keyed in ``PROCESSES`` order: blanking days (the blanking
    rate), annealing tons (the alloy weight) and one struck coin. A
    quarter's usage of a process is that entry dotted with its order."""
    return {
        "blanking": np.array([spec.blanking_rate for spec in specs], dtype=float),
        "annealing": np.array([spec.alloy_weight for spec in specs], dtype=float),
        "striking": np.ones(len(specs)),
    }


def _check_ladder(name: str, breakpoints: tuple, costs: tuple) -> None:
    if len(breakpoints) < 2:
        raise ValueError(f"{name} needs a base breakpoint plus at least one extra level")
    if len(costs) != len(breakpoints) - 1:
        raise ValueError(f"{name} needs one cost per extra level")
    for v in breakpoints:
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} breakpoints must be finite and >= 0")
    for lo, hi in zip(breakpoints, breakpoints[1:]):
        if not hi > lo:
            raise ValueError(f"{name} breakpoints must be strictly increasing")
    for c in costs:
        if not math.isfinite(c) or c < 0:
            raise ValueError(f"{name} costs must be finite and >= 0")
    for lo, hi in zip(costs, costs[1:]):
        if hi < lo:
            raise ValueError(f"{name} costs must be non-decreasing")


@dataclass(frozen=True)
class MintConfig:
    """Capacity ladders shared by all quarters.

    Blanking and striking have a free base interval followed by paid
    extra-shift levels; annealing has a single paid step from ``base``
    to ``max`` tons.
    """

    blanking_breakpoints: tuple[float, ...]
    blanking_costs: tuple[float, ...]
    annealing_base: float
    annealing_max: float
    annealing_cost: float
    striking_breakpoints: tuple[float, ...]
    striking_costs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "blanking_breakpoints", tuple(float(v) for v in self.blanking_breakpoints))
        object.__setattr__(self, "blanking_costs", tuple(float(v) for v in self.blanking_costs))
        object.__setattr__(self, "striking_breakpoints", tuple(float(v) for v in self.striking_breakpoints))
        object.__setattr__(self, "striking_costs", tuple(float(v) for v in self.striking_costs))
        _check_ladder("blanking", self.blanking_breakpoints, self.blanking_costs)
        _check_ladder("striking", self.striking_breakpoints, self.striking_costs)
        _check_ladder("annealing", (self.annealing_base, self.annealing_max), (self.annealing_cost,))

    def breakpoints(self, process: str) -> tuple[float, ...]:
        """Unscaled capacity breakpoints for ``process``, base first."""
        if process == "blanking":
            return self.blanking_breakpoints
        if process == "annealing":
            return (self.annealing_base, self.annealing_max)
        if process == "striking":
            return self.striking_breakpoints
        raise ValueError(f"unknown process {process!r}")

    def level_costs(self, process: str) -> tuple[float, ...]:
        """Extra-shift cost per level for ``process`` (level 0 is free)."""
        if process == "blanking":
            return self.blanking_costs
        if process == "annealing":
            return (self.annealing_cost,)
        if process == "striking":
            return self.striking_costs
        raise ValueError(f"unknown process {process!r}")


@dataclass(frozen=True)
class Disruption:
    """A one-quarter capacity reduction: breakpoints of ``process`` in
    quarter ``quarter`` are multiplied by ``capacity_scale``."""

    quarter: int
    process: str
    capacity_scale: float


@dataclass(frozen=True, eq=False)
class Scenario:
    """One planning problem over ``horizon`` quarters.

    ``demand`` and ``operating_floor`` are (horizon, n_denoms) row-major
    matrices; ``safety_min`` and ``initial_inventory`` are per-denomination
    vectors. Data invariants are reported by :func:`validate_scenario`
    rather than enforced here, so invalid documents can be inspected.
    """

    horizon: int
    coin_specs: tuple[CoinSpec, ...]
    demand: np.ndarray
    operating_floor: np.ndarray
    vault_cap: float
    safety_min: np.ndarray
    initial_inventory: np.ndarray
    disruptions: tuple[Disruption, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coin_specs", tuple(self.coin_specs))
        object.__setattr__(self, "disruptions", tuple(self.disruptions))
        object.__setattr__(self, "demand", _frozen_array(self.demand, ndim=2))
        object.__setattr__(self, "operating_floor", _frozen_array(self.operating_floor, ndim=2))
        object.__setattr__(self, "safety_min", _frozen_array(self.safety_min, ndim=1))
        object.__setattr__(self, "initial_inventory", _frozen_array(self.initial_inventory, ndim=1))

    @property
    def n_denoms(self) -> int:
        return len(self.coin_specs)

    @property
    def denominations(self) -> tuple[str, ...]:
        return tuple(spec.denomination for spec in self.coin_specs)


@dataclass(frozen=True, eq=False)
class MintingPlan:
    """Quarterly production orders and resulting end-of-quarter stocks.

    Both matrices are (horizon, n_denoms): ``orders[t, d]`` is millions
    of coins of denomination ``d`` minted in quarter ``t`` and
    ``inventory[t, d]`` the stock after quarter ``t``'s demand is served.
    """

    orders: np.ndarray
    inventory: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "orders", _frozen_array(self.orders, ndim=2))
        object.__setattr__(self, "inventory", _frozen_array(self.inventory, ndim=2))
        if self.orders.shape != self.inventory.shape:
            raise ValueError("orders and inventory must have the same shape")

    @property
    def horizon(self) -> int:
        return self.orders.shape[0]


@dataclass(frozen=True)
class ShiftSelection:
    """Selected capacity level per quarter for each process.

    Level 0 is the free base interval; level ``i >= 1`` is the i-th paid
    step. Annealing only has levels 0 and 1.
    """

    blanking: tuple[int, ...]
    annealing: tuple[int, ...]
    striking: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blanking", tuple(int(v) for v in self.blanking))
        object.__setattr__(self, "annealing", tuple(int(v) for v in self.annealing))
        object.__setattr__(self, "striking", tuple(int(v) for v in self.striking))
        if not (len(self.blanking) == len(self.annealing) == len(self.striking)):
            raise ValueError("per-process level tuples must cover the same horizon")
        for name in ("blanking", "annealing", "striking"):
            if any(v < 0 for v in getattr(self, name)):
                raise ValueError(f"{name} levels must be >= 0")
        if any(v > 1 for v in self.annealing):
            raise ValueError("annealing level must be 0 or 1")

    def levels(self, process: str) -> tuple[int, ...]:
        if process not in PROCESSES:
            raise ValueError(f"unknown process {process!r}")
        return getattr(self, process)


@dataclass(frozen=True)
class Solution:
    """Result of one solve: plan, selected shifts, and objective parts.

    ``cost`` is the extra-shift bill alone; ``objective`` equals
    ``cost - k`` where ``k`` is the achieved safety-stock multiplier.
    ``shifts`` holds the levels the optimizer's binaries switched on, so
    ``cost`` is their ``shift_cost``; on a ladder whose steps grow, a
    level can sit above the plan's ``minimal_shifts``, because the model
    gives level j the base plus that level's own step.
    ``injections`` lists the producing model's first-quarter restrictions
    in its order (``StandardFormProblem.injected``), and ``notes`` holds
    human-readable solver remarks (escalations, repairs).
    """

    status: str
    objective: float
    cost: float
    k: float
    plan: MintingPlan | None = None
    shifts: ShiftSelection | None = None
    injections: tuple = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in ("optimal", "infeasible"):
            raise ValueError(f"unknown solution status {self.status!r}")
        if self.status == "optimal" and (self.plan is None or self.shifts is None):
            raise ValueError("an optimal solution must carry a plan and shifts")


def scaled_breakpoints(
    config: MintConfig,
    disruptions: Sequence[Disruption],
    quarter: int,
    process: str,
) -> tuple[float, ...]:
    """Capacity breakpoints for ``process`` in ``quarter`` after applying
    every matching disruption's scale factor."""
    breaks = config.breakpoints(process)
    scale = 1.0
    for dis in disruptions:
        if dis.quarter == quarter and dis.process == process:
            scale *= dis.capacity_scale
    if scale == 1.0:
        return breaks
    return tuple(b * scale for b in breaks)


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check the scenario's data invariants.

    Returns a list of human-readable violations, one per problem, each
    naming the offending field and quarter/denomination. An empty list
    means the scenario is safe to hand to the model builder.
    """
    out: list[str] = []
    s = scenario
    T, D = s.horizon, s.n_denoms

    if T < 1:
        out.append(f"horizon: must be >= 1, got {T}")
    if D < 1:
        out.append("coin_specs: at least one denomination is required")
    seen: set[str] = set()
    for spec in s.coin_specs:
        if spec.denomination in seen:
            out.append(f"coin_specs: duplicate denomination {spec.denomination!r}")
        seen.add(spec.denomination)

    for name in ("demand", "operating_floor"):
        arr = getattr(s, name)
        if arr.shape != (T, D):
            out.append(f"{name}: expected shape {(T, D)}, got {arr.shape}")
            continue
        for t in range(T):
            for d in range(D):
                v = arr[t, d]
                if not math.isfinite(v):
                    out.append(f"{name}: non-finite value at quarter {t}, denomination {d}")
                elif v < 0:
                    out.append(f"{name}: negative value at quarter {t}, denomination {d}")

    for name in ("safety_min", "initial_inventory"):
        arr = getattr(s, name)
        if arr.shape != (D,):
            out.append(f"{name}: expected shape {(D,)}, got {arr.shape}")
            continue
        for d in range(D):
            v = arr[d]
            if not math.isfinite(v):
                out.append(f"{name}: non-finite value at denomination {d}")
            elif v < 0:
                out.append(f"{name}: negative value at denomination {d}")

    if not math.isfinite(s.vault_cap) or s.vault_cap < 0:
        out.append(f"vault_cap: must be finite and >= 0, got {s.vault_cap}")
    elif s.initial_inventory.shape == (D,) and float(np.sum(s.initial_inventory)) > s.vault_cap + BOUNDARY_TOL:
        out.append(
            f"vault_cap: initial inventory total {float(np.sum(s.initial_inventory))} "
            f"exceeds vault_cap {s.vault_cap}"
        )

    for i, dis in enumerate(s.disruptions):
        if dis.process not in PROCESSES:
            out.append(f"disruptions[{i}]: unknown process {dis.process!r}")
        if not 0 <= dis.quarter < T:
            out.append(f"disruptions[{i}]: quarter {dis.quarter} outside horizon {T}")
        if not math.isfinite(dis.capacity_scale) or not 0.0 <= dis.capacity_scale <= 1.0:
            out.append(f"disruptions[{i}]: capacity_scale must be in [0, 1], got {dis.capacity_scale}")

    return out


# ---------------------------------------------------------------------------
# scenario file format
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    """``parse_constant`` hook for every mintplan JSON document."""
    raise ScenarioFormatError(f"non-finite number {token!r} is not allowed in a mintplan file")


def coin_specs_to_list(specs: Sequence[CoinSpec]) -> list[dict]:
    return [
        {
            "id": spec.denomination,
            "alloy_weight": float(spec.alloy_weight),
            "blanking_rate": float(spec.blanking_rate),
        }
        for spec in specs
    ]


def mint_config_to_dict(config: MintConfig) -> dict:
    return {
        "blanking": {
            "breakpoints": [float(v) for v in config.blanking_breakpoints],
            "costs": [float(v) for v in config.blanking_costs],
        },
        "annealing": {
            "base": float(config.annealing_base),
            "max": float(config.annealing_max),
            "cost": float(config.annealing_cost),
        },
        "striking": {
            "breakpoints": [float(v) for v in config.striking_breakpoints],
            "costs": [float(v) for v in config.striking_costs],
        },
    }


def disruptions_to_list(disruptions: Sequence[Disruption]) -> list[dict]:
    return [
        {
            "quarter": int(dis.quarter),
            "process": dis.process,
            "capacity_scale": float(dis.capacity_scale),
        }
        for dis in disruptions
    ]


def scenario_to_dict(scenario: Scenario, config: MintConfig) -> dict:
    """Plain-dict form of a scenario, ready for JSON serialization."""
    return {
        "horizon": int(scenario.horizon),
        "denominations": coin_specs_to_list(scenario.coin_specs),
        "mint_config": mint_config_to_dict(config),
        "demand": [[float(v) for v in row] for row in scenario.demand],
        "operating_floor": [[float(v) for v in row] for row in scenario.operating_floor],
        "vault_cap": float(scenario.vault_cap),
        "safety_min": [float(v) for v in scenario.safety_min],
        "initial_inventory": [float(v) for v in scenario.initial_inventory],
        "disruptions": disruptions_to_list(scenario.disruptions),
    }


def dump_scenario(scenario: Scenario, config: MintConfig) -> str:
    """Canonical JSON text for a scenario: sorted keys, two-space indent,
    every quantity as a float. ``parse`` of this text reproduces the
    inputs bit-exactly."""
    return json.dumps(scenario_to_dict(scenario, config), sort_keys=True, indent=2) + "\n"


def _require(doc: dict, key: str, path: str = ""):
    if key not in doc:
        raise ScenarioFormatError(f"missing required key {path + key!r}")
    return doc[key]


def _number(value, where: str) -> float:
    """A JSON number as a float; ``true`` and ``false`` are no numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _num(value, where: str) -> float:
    v = _number(value, where)
    if not math.isfinite(v):
        raise ScenarioFormatError(f"{where}: number must be finite, got {v}")
    return v


def _numlist(values, where: str) -> list[float]:
    if not isinstance(values, list):
        raise ScenarioFormatError(f"{where}: expected a list of numbers")
    return [_num(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _numrows(rows, where: str) -> list[list[float]]:
    if not isinstance(rows, list):
        raise ScenarioFormatError(f"{where}: expected a list of rows")
    return [_numlist(row, f"{where}[{t}]") for t, row in enumerate(rows)]


def coin_specs_from_list(denom_docs, where: str = "denominations") -> tuple[CoinSpec, ...]:
    if not isinstance(denom_docs, list) or not denom_docs:
        raise ScenarioFormatError(f"{where}: expected a non-empty list")
    specs = []
    for i, dd in enumerate(denom_docs):
        here = f"{where}[{i}]"
        if not isinstance(dd, dict):
            raise ScenarioFormatError(f"{here}: expected an object")
        ident = _require(dd, "id", here + ".")
        if not isinstance(ident, str):
            raise ScenarioFormatError(f"{here}.id: expected a string")
        try:
            specs.append(
                CoinSpec(
                    denomination=ident,
                    alloy_weight=_num(_require(dd, "alloy_weight", here + "."), here + ".alloy_weight"),
                    blanking_rate=_num(_require(dd, "blanking_rate", here + "."), here + ".blanking_rate"),
                )
            )
        except ValueError as exc:
            raise ScenarioFormatError(f"{here}: {exc}") from exc
    return tuple(specs)


def mint_config_from_dict(mc, where: str = "mint_config") -> MintConfig:
    if not isinstance(mc, dict):
        raise ScenarioFormatError(f"{where}: expected an object")

    def ladder(section: str, keys: tuple[str, ...]) -> dict:
        sub = _require(mc, section, where + ".")
        if not isinstance(sub, dict):
            raise ScenarioFormatError(f"{where}.{section}: expected an object")
        for k in keys:
            _require(sub, k, f"{where}.{section}.")
        return sub

    blanking = ladder("blanking", ("breakpoints", "costs"))
    annealing = ladder("annealing", ("base", "max", "cost"))
    striking = ladder("striking", ("breakpoints", "costs"))
    try:
        return MintConfig(
            blanking_breakpoints=tuple(_numlist(blanking["breakpoints"], f"{where}.blanking.breakpoints")),
            blanking_costs=tuple(_numlist(blanking["costs"], f"{where}.blanking.costs")),
            annealing_base=_num(annealing["base"], f"{where}.annealing.base"),
            annealing_max=_num(annealing["max"], f"{where}.annealing.max"),
            annealing_cost=_num(annealing["cost"], f"{where}.annealing.cost"),
            striking_breakpoints=tuple(_numlist(striking["breakpoints"], f"{where}.striking.breakpoints")),
            striking_costs=tuple(_numlist(striking["costs"], f"{where}.striking.costs")),
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def disruptions_from_list(disruption_docs, where: str = "disruptions") -> tuple[Disruption, ...]:
    if not isinstance(disruption_docs, list):
        raise ScenarioFormatError(f"{where}: expected a list")
    disruptions = []
    for i, dd in enumerate(disruption_docs):
        here = f"{where}[{i}]"
        if not isinstance(dd, dict):
            raise ScenarioFormatError(f"{here}: expected an object")
        q = _require(dd, "quarter", here + ".")
        if isinstance(q, bool) or not isinstance(q, int):
            raise ScenarioFormatError(f"{here}.quarter: expected an integer")
        proc = _require(dd, "process", here + ".")
        if not isinstance(proc, str):
            raise ScenarioFormatError(f"{here}.process: expected a string")
        disruptions.append(
            Disruption(
                quarter=q,
                process=proc,
                capacity_scale=_num(_require(dd, "capacity_scale", here + "."), here + ".capacity_scale"),
            )
        )
    return tuple(disruptions)


def scenario_from_dict(doc: dict) -> tuple[Scenario, MintConfig]:
    """Build a validated (Scenario, MintConfig) pair from a plain dict."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")

    horizon = _require(doc, "horizon")
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise ScenarioFormatError("horizon: expected an integer")

    specs = coin_specs_from_list(_require(doc, "denominations"))
    config = mint_config_from_dict(_require(doc, "mint_config"))

    disruptions = disruptions_from_list(doc.get("disruptions", []))

    scenario = Scenario(
        horizon=horizon,
        coin_specs=specs,
        demand=_numrows(_require(doc, "demand"), "demand"),
        operating_floor=_numrows(_require(doc, "operating_floor"), "operating_floor"),
        vault_cap=_num(_require(doc, "vault_cap"), "vault_cap"),
        safety_min=_numlist(_require(doc, "safety_min"), "safety_min"),
        initial_inventory=_numlist(_require(doc, "initial_inventory"), "initial_inventory"),
        disruptions=disruptions,
    )

    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioFormatError("invalid scenario: " + "; ".join(violations))
    return scenario, config


def load_scenario(text: str) -> tuple[Scenario, MintConfig]:
    """Parse scenario JSON text, rejecting malformed documents, NaN and
    infinity tokens, and invariant violations."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)

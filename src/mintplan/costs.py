"""Resource measures and piecewise extra-shift costs.

A production order consumes three resources: blanking-line time in
working days, annealing throughput in tons, and striking-press count in
millions of coins. What one coin loads onto each comes from
``model.coin_loads``. Each process charges nothing up to its base
breakpoint and a flat fee per additional shift level, with intervals
closed on the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    BOUNDARY_TOL,
    PROCESSES,
    CoinSpec,
    Disruption,
    MintConfig,
    MintingPlan,
    MintPlanError,
    ShiftSelection,
    coin_loads,
    scaled_breakpoints,
)


class CapacityExceededError(MintPlanError):
    """Usage lies beyond the last capacity breakpoint of a process."""

    def __init__(self, process: str, usage: float, limit: float, quarter: int | None = None):
        self.process = process
        self.usage = usage
        self.limit = limit
        self.quarter = quarter
        where = f" in quarter {quarter}" if quarter is not None else ""
        super().__init__(
            f"{process} usage {usage:g}{where} exceeds the top capacity {limit:g}"
        )


@dataclass(frozen=True)
class ResourceUsage:
    """Resource consumption of one quarter's order, one field per
    process in ``PROCESSES`` order."""

    blanking_days: float
    annealing_tons: float
    striking_count: float

    def for_process(self, process: str) -> float:
        if process == "blanking":
            return self.blanking_days
        if process == "annealing":
            return self.annealing_tons
        if process == "striking":
            return self.striking_count
        raise ValueError(f"unknown process {process!r}")


def usage(order: Sequence[float], specs: Sequence[CoinSpec]) -> ResourceUsage:
    """Resource usage of a single quarter's order vector: each process's
    ``coin_loads`` entry dotted with the order, so blanking days, alloy
    tons, and the plain coin total."""
    arr = np.asarray(order, dtype=float)
    if arr.shape != (len(specs),):
        raise ValueError(f"order must have one entry per denomination, got shape {arr.shape}")
    loads = coin_loads(specs)
    return ResourceUsage(*(float(loads[process] @ arr) for process in PROCESSES))


def step_level(value: float, breaks: Sequence[float], process: str, quarter: int | None) -> int:
    """Minimal level whose breakpoint covers ``value`` (0 for the base),
    raising ``CapacityExceededError`` past the top breakpoint."""
    # intervals are right-closed: value == breaks[i] still belongs to level i
    if value <= breaks[0] + BOUNDARY_TOL:
        return 0
    for lvl in range(1, len(breaks)):
        if value <= breaks[lvl] + BOUNDARY_TOL:
            return lvl
    raise CapacityExceededError(process, value, breaks[-1], quarter)


def level_cost(config: MintConfig, process: str, level: int) -> float:
    """Price of ``process``'s extra level ``level`` (0.0 for the base)."""
    return 0.0 if level == 0 else float(config.level_costs(process)[level - 1])


def blanking_cost(days: float, config: MintConfig) -> float:
    """Extra-shift cost for a blanking load of ``days`` working days."""
    return level_cost(config, "blanking", step_level(days, config.breakpoints("blanking"), "blanking", None))


def annealing_cost(tons: float, config: MintConfig) -> float:
    """Extra-shift cost for an annealing load of ``tons`` tons."""
    return level_cost(config, "annealing", step_level(tons, config.breakpoints("annealing"), "annealing", None))


def striking_cost(count: float, config: MintConfig) -> float:
    """Extra-shift cost for striking ``count`` million coins."""
    return level_cost(config, "striking", step_level(count, config.breakpoints("striking"), "striking", None))


def usage_cost(
    u: ResourceUsage,
    config: MintConfig,
    disruptions: Sequence[Disruption] = (),
    quarter: int = 0,
) -> float:
    """Total extra-shift cost of one quarter's usage, with the quarter's
    disruptions applied to the breakpoints: the price of its
    ``usage_levels``."""
    levels = usage_levels(u, config, disruptions, quarter)
    return sum(level_cost(config, process, level) for process, level in zip(PROCESSES, levels))


def usage_levels(
    u: ResourceUsage,
    config: MintConfig,
    disruptions: Sequence[Disruption] = (),
    quarter: int = 0,
) -> tuple[int, int, int]:
    """Minimal covering (blanking, annealing, striking) levels for one
    quarter's usage under the quarter's effective breakpoints."""
    out = []
    for process in PROCESSES:
        breaks = scaled_breakpoints(config, disruptions, quarter, process)
        out.append(step_level(u.for_process(process), breaks, process, quarter))
    return tuple(out)


def plan_cost(
    plan: MintingPlan,
    specs: Sequence[CoinSpec],
    config: MintConfig,
    disruptions: Sequence[Disruption] = (),
) -> float:
    """Extra-shift bill of a whole plan: the sum over quarters of the
    three per-process step costs. Raises CapacityExceededError if any
    quarter's usage lies beyond the top breakpoint."""
    total = 0.0
    for t in range(plan.horizon):
        u = usage(plan.orders[t], specs)
        total += usage_cost(u, config, disruptions, t)
    return total


def minimal_shifts(
    plan: MintingPlan,
    specs: Sequence[CoinSpec],
    config: MintConfig,
    disruptions: Sequence[Disruption] = (),
) -> ShiftSelection:
    """Smallest shift level per quarter and process whose breakpoint
    covers the plan's usage. ``plan_cost`` equals the cost of exactly
    this selection."""
    blanking, annealing, striking = [], [], []
    for t in range(plan.horizon):
        u = usage(plan.orders[t], specs)
        b, a, s = usage_levels(u, config, disruptions, t)
        blanking.append(b)
        annealing.append(a)
        striking.append(s)
    return ShiftSelection(blanking=tuple(blanking), annealing=tuple(annealing), striking=tuple(striking))


def shift_cost(shifts: ShiftSelection, config: MintConfig) -> float:
    """Cost implied by an explicit shift selection."""
    total = 0.0
    for process in PROCESSES:
        n_levels = len(config.level_costs(process))
        for lvl in shifts.levels(process):
            if lvl > n_levels:
                raise ValueError(f"{process} level {lvl} exceeds the ladder ({n_levels} levels)")
            total += level_cost(config, process, lvl)
    return total

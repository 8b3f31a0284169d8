"""First-quarter refinement procedures layered on top of the solver.

Both procedures look only at the first quarter of a solved plan, try a
restricted variant of the model, and keep the restricted solution only
when it does not hurt:

* ``procedure1`` pushes slack out of the plan. If the first quarter
  leaves base striking (then blanking) capacity unused, it re-solves
  with that base capacity pinned to full use and accepts the new plan
  when the extra-shift bill is unchanged, banking free production as
  inventory. After an accepted striking fill pins the coin count, the
  blanking fill is skipped without a solve when no mix of that many
  coins can load blanking to its base.
* ``procedure2`` postpones paid capacity. If the first quarter uses an
  extra level of striking, blanking, or annealing, it re-solves with
  that level forbidden in the first quarter and accepts whenever the
  restricted model is still feasible, deferring the spend until the
  forecast firms up.

The procedures take the unrestricted model the plan was solved on: each
restricted variant is ``mip.restrict`` of it, and base capacities are
read off its rows. A variant is solved and integerized like the model
itself; ``integerize`` returns only plans that meet the variant's pinned
totals, so any plan it returns is taken, and a variant it cannot repair
counts as infeasible. Accepted restrictions accumulate: each acceptance
replaces the working plan, so later guards are evaluated against the
already-restricted plan, and the solution's ``injections`` field carries
the final set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bnb as bnb_mod
from . import costs as costs_mod
from . import mip as mip_mod
from .bnb import DEFAULT_NODE_CAP, RepairInfeasibleError
from .lpsolve import FEAS_TOL
from .mip import DEFAULT_K_MAX, InjectedConstraint, StandardFormProblem
from .model import BOUNDARY_TOL, MintConfig, Scenario, Solution, coin_loads

#: Cost drift allowed when calling a restricted solution "no worse".
ACCEPT_TOL = 1e-6


@dataclass(frozen=True)
class HeuristicEvent:
    """One guard evaluation that fired: which procedure, which process,
    whether the restricted model was accepted, and the cost movement."""

    procedure: str
    process: str
    quarter: int
    accepted: bool
    cost_delta: float | None
    reason: str


def _solve_restricted(
    scenario: Scenario,
    model: StandardFormProblem,
    injections: tuple[InjectedConstraint, ...],
    *,
    granularity: float,
    node_cap: int,
) -> Solution | None:
    """Full pipeline on the unrestricted ``model`` under the given
    injections, or None when the restricted model is infeasible or its
    solution cannot be integerized. A plan ``integerize`` returns meets
    every pinned total of the restricted model, so it is taken as is."""
    problem = mip_mod.restrict(model, injections)
    sol = bnb_mod.solve_mip(problem, node_cap=node_cap)
    if sol.status != "optimal":
        return None
    try:
        return bnb_mod.integerize(problem, sol, scenario, granularity=granularity, node_cap=node_cap)
    except RepairInfeasibleError:
        return None


def _pinned_count_rules_out_blanking(scenario: Scenario, model: StandardFormProblem) -> bool:
    """Whether pinning first-quarter striking to base leaves no room for
    base blanking: with the coin count fixed at Z, the blanking load
    ``sum(rate * f)`` over nonnegative orders lies between min rate * Z
    and max rate * Z, so a base load X outside that band makes the two
    pinned rows inconsistent. The band must be missed by more than ten
    times the LP's phase-1 tolerance, scaled like its box screen, so the
    certificate only claims what the solver would find; a slimmer miss
    is left to the solver."""
    rates = coin_loads(scenario.coin_specs)["blanking"]
    lo, hi = float(rates.min()), float(rates.max())
    z = mip_mod.level_capacity(model, "striking", 0, 0)
    x = mip_mod.level_capacity(model, "blanking", 0, 0)
    margin = 10.0 * FEAS_TOL * max(1.0, abs(x), abs(z), hi)
    return x > hi * z + margin or x < lo * z - margin


def procedure1(
    scenario: Scenario,
    model: StandardFormProblem,
    solution: Solution,
    *,
    granularity: float = 1.0,
    node_cap: int = DEFAULT_NODE_CAP,
    events: list | None = None,
) -> Solution:
    """Fill unused first-quarter base capacity when it costs nothing.

    ``model`` is the unrestricted model ``solution`` was solved on.
    Checks striking first, then blanking against the current plan. Each
    firing guard re-solves with the base capacity pinned to full use
    and accepts only when the extra-shift bill is unchanged. When
    neither guard fires the input solution is returned untouched. A
    blanking fill on a plan whose coin count is already pinned is
    recorded as "restricted model infeasible" without a solve when the
    pinned count proves it: Z coins load blanking with at least
    min rate * Z and at most max rate * Z, and a base outside that band
    cannot be met.
    """
    if solution.status != "optimal":
        raise ValueError("procedure1 needs an optimal solution to refine")
    current = solution
    for process, kind in (("striking", "force_base_striking"), ("blanking", "force_base_blanking")):
        base = mip_mod.level_capacity(model, process, 0, 0)
        use = costs_mod.usage(current.plan.orders[0], scenario.coin_specs).for_process(process)
        if not use < base - BOUNDARY_TOL:
            continue
        doomed = (
            kind == "force_base_blanking"
            and InjectedConstraint(kind="force_base_striking", quarter=0) in current.injections
            and _pinned_count_rules_out_blanking(scenario, model)
        )
        candidate = None if doomed else _solve_restricted(
            scenario,
            model,
            current.injections + (InjectedConstraint(kind=kind, quarter=0),),
            granularity=granularity,
            node_cap=node_cap,
        )
        if candidate is None:
            accepted = False
            delta = None
            reason = "restricted model infeasible"
        else:
            delta = candidate.cost - current.cost
            accepted = abs(delta) <= ACCEPT_TOL
            reason = "cost unchanged" if accepted else "cost moved"
        if events is not None:
            events.append(
                HeuristicEvent(
                    procedure="procedure1",
                    process=process,
                    quarter=0,
                    accepted=accepted,
                    cost_delta=delta,
                    reason=reason,
                )
            )
        if accepted:
            current = candidate
    return current


def procedure2(
    scenario: Scenario,
    model: StandardFormProblem,
    solution: Solution,
    *,
    granularity: float = 1.0,
    node_cap: int = DEFAULT_NODE_CAP,
    events: list | None = None,
) -> Solution:
    """Postpone paid first-quarter capacity when feasibility allows.

    ``model`` is the unrestricted model ``solution`` was solved on. For
    each process whose first quarter sits on a paid level, re-solve
    with that process restricted to base capacity in the first quarter
    and accept whenever the restricted model stays feasible. When no
    paid level is active the input solution is returned untouched.
    """
    if solution.status != "optimal":
        raise ValueError("procedure2 needs an optimal solution to refine")
    current = solution
    for process, kind in (
        ("striking", "forbid_extra_striking"),
        ("blanking", "forbid_extra_blanking"),
        ("annealing", "forbid_extra_annealing"),
    ):
        if current.shifts.levels(process)[0] == 0:
            continue
        candidate = _solve_restricted(
            scenario,
            model,
            current.injections + (InjectedConstraint(kind=kind, quarter=0),),
            granularity=granularity,
            node_cap=node_cap,
        )
        accepted = candidate is not None
        delta = candidate.cost - current.cost if candidate is not None else None
        if events is not None:
            events.append(
                HeuristicEvent(
                    procedure="procedure2",
                    process=process,
                    quarter=0,
                    accepted=accepted,
                    cost_delta=delta,
                    reason="restricted model feasible" if accepted else "restricted model infeasible",
                )
            )
        if accepted:
            current = candidate
    return current


def run_heuristics(
    scenario: Scenario,
    model: StandardFormProblem,
    solution: Solution,
    *,
    use_proc1: bool = True,
    use_proc2: bool = True,
    order: str = "proc2-first",
    granularity: float = 1.0,
    node_cap: int = DEFAULT_NODE_CAP,
    events: list | None = None,
) -> Solution:
    """Apply the enabled procedures in the configured order.

    Postponing first can free base capacity that the fill step then
    uses, so ``proc2-first`` is the default.
    """
    if order not in ("proc2-first", "proc1-first"):
        raise ValueError(f"unknown heuristic order {order!r}")
    steps = [(use_proc2, procedure2), (use_proc1, procedure1)]  # looked up per call, so a patched name is called
    if order == "proc1-first":
        steps.reverse()
    current = solution
    for enabled, procedure in steps:
        if enabled:
            current = procedure(scenario, model, current, granularity=granularity, node_cap=node_cap, events=events)
    return current


def solve_pipeline(
    scenario: Scenario,
    config: MintConfig,
    *,
    use_proc1: bool = False,
    use_proc2: bool = False,
    order: str = "proc2-first",
    granularity: float = 1.0,
    k_max: float = DEFAULT_K_MAX,
    node_cap: int = DEFAULT_NODE_CAP,
    events: list | None = None,
) -> Solution:
    """Solve, integerize, and optionally refine one scenario.

    Builds the model once; integerization and every restricted re-solve
    of the refinements work on that model. Returns an infeasible
    Solution when the model has no feasible point; raises
    RepairInfeasibleError when rounding cannot be repaired even with
    escalation, and ValueError, before any search, on a granularity
    that is not finite and positive.
    """
    if not (math.isfinite(granularity) and granularity > 0):
        raise ValueError(f"granularity must be finite and positive, got {granularity}")
    model = mip_mod.build(scenario, config, k_max=k_max)
    sol = bnb_mod.solve_mip(model, node_cap=node_cap)
    if sol.status != "optimal":
        return sol
    sol = bnb_mod.integerize(model, sol, scenario, granularity=granularity, node_cap=node_cap)
    if use_proc1 or use_proc2:
        sol = run_heuristics(
            scenario,
            model,
            sol,
            use_proc1=use_proc1,
            use_proc2=use_proc2,
            order=order,
            granularity=granularity,
            node_cap=node_cap,
            events=events,
        )
    return sol

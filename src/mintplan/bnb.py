"""Branch-and-bound over the binary shift selections, plus the greedy
integerization step and a brute-force enumeration oracle.

The search is best-first on the LP relaxation bound. Each node fixes a
subset of the binaries through bound overrides; branching picks the
most fractional binary, breaking ties by process (striking, blanking,
annealing), then earliest quarter, then lowest level. Because the
heap always pops the smallest bound, the first integral node popped is
optimal and the search can stop there. Every column of the model has
finite bounds (``StandardFormProblem`` demands it), so each node's LP
is boxed: it has an optimum or is infeasible, and an infeasible node
is pruned.

The model's objective is the extra-shift bill, and the bill comes
before K. This module alone rewards K, in K passes that one builder
makes: a copy of the model that maximizes K, with given levels switched
off by an upper bound of 0 and, at a given bill, one equality row
pinning the bill there. When no binary has a negative cost, the K pass
at a bill of 0 runs first, with every priced level switched off: most
replans need no paid shift, and for them that one search is the whole
solve. Otherwise, or when it is infeasible, the bill pass minimizes the
model's objective and the K pass runs with its bill pinned by the row.

The root node solves the model under its own bounds, so a binary fixed
before the search is fixed in the model: the integerizer escalates a
blocked repair by raising the next level's lower bound to 1 on a copy of
the model, which keeps every earlier escalation's bound, and re-solves
that copy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace
from itertools import product

import numpy as np

from .lpsolve import slack_start, solve_lp
from .mip import Row, StandardFormProblem, level_capacity, level_column, plan_of, shifts_of
from .model import (
    BOUNDARY_TOL,
    PROCESSES,
    CoinSpec,
    Disruption,
    MintConfig,
    MintingPlan,
    MintPlanError,
    Scenario,
    Solution,
    coin_loads,
)

#: Binary values within this of an integer count as integral.
INT_TOL = 1e-6

#: Default limit on LP relaxations solved per MIP solve.
DEFAULT_NODE_CAP = 1_000_000

#: The process order of branching ties, escalations and the enumeration.
_SEARCH_ORDER = ("striking", "blanking", "annealing")


class NodeCapExceeded(MintPlanError):
    """Branch-and-bound hit its node budget before finishing."""


def _check_node_cap(node_cap) -> None:
    """Raise ValueError unless ``node_cap`` is an integer >= 0 (not a bool)."""
    if isinstance(node_cap, bool) or not isinstance(node_cap, int) or node_cap < 0:
        raise ValueError(f"node_cap must be an integer >= 0, got {node_cap!r}")


class RepairInfeasibleError(MintPlanError):
    """Greedy integerization could not restore all stock floors or a
    pinned first-quarter total.

    ``partial_plan`` carries the best repaired plan reached before
    giving up, for inspection.
    """

    def __init__(self, message: str, partial_plan: MintingPlan | None = None):
        super().__init__(message)
        self.partial_plan = partial_plan


def _ladders_in_search_order(problem: StandardFormProblem) -> list[tuple[int, ...]]:
    """The model's ladders by process in ``_SEARCH_ORDER``, then quarter."""
    keys = sorted(problem.ladders, key=lambda key: (_SEARCH_ORDER.index(key[0]), key[1]))
    return [problem.ladders[key] for key in keys]


def _branch_column(problem: StandardFormProblem, x: np.ndarray) -> int | None:
    """The most fractional level binary, the first in search order on a tie."""
    best_col, best_dist = None, INT_TOL
    for ladder in _ladders_in_search_order(problem):
        for col in ladder:
            dist = min(x[col], 1.0 - x[col])
            if dist > best_dist:
                best_col, best_dist = col, dist
    return best_col


def _branch_and_bound(problem: StandardFormProblem, *, node_budget: list) -> np.ndarray | None:
    def solve_node(override: dict):
        node_budget[0] -= 1
        if node_budget[0] < 0:
            raise NodeCapExceeded("branch-and-bound exceeded its node cap")
        res = solve_lp(problem, bounds_override=override)
        return res.status, res.objective, res.x  # not the solver arrays the result carries

    status, objective, x = solve_node({})
    if status != "optimal":
        return None

    heap = [(objective, 0, {}, x)]
    seq = 1
    while heap:
        bound, _, override, x = heapq.heappop(heap)
        col = _branch_column(problem, x)
        if col is None:
            return x  # best-first: no open node has a smaller bound
        for value in (0.0, 1.0):
            child = dict(override)
            child[col] = (value, value)
            status, objective, child_x = solve_node(child)
            if status != "optimal":
                continue
            assert objective >= bound - 1e-6, "child bound fell below its parent"
            heapq.heappush(heap, (objective, seq, child, child_x))
            seq += 1
    return None


def _extract_solution(problem: StandardFormProblem, x: np.ndarray) -> Solution:
    k = float(x[problem.column_index("K")])
    cost = _bill(problem, x)
    return Solution(
        status="optimal",
        objective=cost - k,
        cost=cost,
        k=k,
        plan=plan_of(problem, x),
        shifts=shifts_of(problem, x),
        injections=problem.injected,
    )


def _bill(problem: StandardFormProblem, x: np.ndarray) -> float:
    """The extra-shift bill of a point: its rounded binaries priced at
    their objective entries."""
    return float(sum(problem.objective[col] * round(x[col]) for col in problem.binaries))


def _k_pass(problem: StandardFormProblem, off=(), bill: float | None = None) -> StandardFormProblem:
    """A K pass over ``problem``: maximize K and nothing else, with the
    levels ``off`` switched off by an upper bound of 0 and, when ``bill``
    is given, the extra-shift bill pinned there by one equality row."""
    upper = list(problem.upper)
    for col in off:
        upper[col] = 0.0
    rows = problem.rows
    if bill is not None:
        coeffs = tuple((col, problem.objective[col]) for col in problem.binaries if problem.objective[col] != 0.0)
        rows += (Row(label="cost_lock[0]", coeffs=coeffs, relation="=", rhs=bill),)
    k_col = problem.column_index("K")
    objective = tuple(-1.0 if col == k_col else 0.0 for col in range(len(problem.columns)))
    return replace(problem, objective=objective, upper=tuple(upper), rows=rows)


def solve_mip(
    problem: StandardFormProblem,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Solution:
    """Solve the model to optimality over its binaries.

    Binaries are fixed through the model's own bounds: a lower bound of
    1 switches a level on, as the integerizer's escalation does, and one
    on a level whose upper bound a ``forbid_extra_*`` restriction zeroed
    is a crossed column, which makes the solve infeasible.

    The model's objective is the bill: it must price level binaries and
    nothing else (ValueError otherwise), and the solver adds K's reward
    itself. The optimum has the least bill, then the largest K. When no
    binary costs less than 0, the K pass at a bill of 0 runs first, with
    every priced level switched off by an upper bound of 0 (one the model
    switches on is then crossed, so that pass is infeasible with no
    simplex run): a plan found there is the optimum, since none costs
    less. Otherwise, or when that tree is infeasible, the bill pass
    minimizes the model's objective and the K pass runs with its bill
    pinned by an equality row. All searches draw on one budget of
    ``node_cap`` LPs, an integer >= 0 (ValueError otherwise).
    """
    _check_node_cap(node_cap)
    levels = set(problem.binaries)
    if any(cost != 0.0 for col, cost in enumerate(problem.objective) if col not in levels):
        raise ValueError("the model's objective is the bill of its level binaries; the solver adds K's reward itself")
    budget = [node_cap]
    if all(problem.objective[col] >= 0.0 for col in problem.binaries):
        priced = [col for col in problem.binaries if problem.objective[col] != 0.0]
        x = _branch_and_bound(_k_pass(problem, off=priced), node_budget=budget)
        if x is not None:
            return _extract_solution(problem, x)
    x1 = _branch_and_bound(problem, node_budget=budget)
    if x1 is None:
        return Solution(status="infeasible", objective=math.nan, cost=math.nan, k=math.nan)
    x2 = _branch_and_bound(_k_pass(problem, bill=_bill(problem, x1)), node_budget=budget)
    if x2 is None:  # the bill pass's point satisfies the lock, so this cannot happen
        raise MintPlanError("cost-locked second pass lost feasibility")
    return _extract_solution(problem, x2)


# ---------------------------------------------------------------------------
# integerization
# ---------------------------------------------------------------------------

class _Repair:
    """Working state for the greedy plan repair."""

    def __init__(self, problem: StandardFormProblem, solution: Solution, scenario: Scenario, granularity: float):
        self.s = scenario
        self.g = granularity
        self.loads = coin_loads(scenario.coin_specs)
        self.rates = self.loads["blanking"]
        self.relaxed = np.array(solution.plan.orders)
        self.k = solution.k
        self.notes: list[str] = []

        scaled = self.relaxed / granularity
        snapped = np.round(scaled)
        near = np.abs(scaled - snapped) <= 1e-7
        self.f = np.where(near, snapped, np.floor(scaled + 1e-12)) * granularity

        self.caps = [  # per quarter: process -> usage ceiling at the kept selection
            {
                process: level_capacity(problem, process, t, solution.shifts.levels(process)[t])
                for process in PROCESSES
            }
            for t in range(scenario.horizon)
        ]

        self.pinned: dict[int, dict[str, float]] = {}  # quarter -> process -> pinned usage
        for inj in problem.injected:
            if inj.kind.startswith("force_base_"):
                self.pinned.setdefault(inj.quarter, {})[inj.process] = problem.row_by_label[inj.label].rhs

    def inventory(self) -> np.ndarray:
        flows = np.cumsum(self.f - self.s.demand, axis=0)
        return np.asarray(self.s.initial_inventory) + flows

    def quarter_usage(self, t: int, delta: np.ndarray) -> dict:
        order = self.f[t] + delta
        return {process: float(self.loads[process] @ order) for process in PROCESSES}

    def capacity_blocks(self, t: int, delta: np.ndarray) -> list[str]:
        use = self.quarter_usage(t, delta)
        return [p for p in PROCESSES if use[p] > self.caps[t][p] + BOUNDARY_TOL]

    def vault_ok(self, t: int, added: float) -> bool:
        inv = self.inventory()
        totals = inv[t:].sum(axis=1) + added
        return bool(np.all(totals <= self.s.vault_cap + 1e-9))

    def misfit(self, t: int, delta: np.ndarray) -> list[str] | None:
        """None when ``delta`` fits quarter ``t`` (capacity, no negative
        order, vault); else the processes whose capacity it crosses."""
        blocks = self.capacity_blocks(t, delta)
        if blocks or np.any(self.f[t] + delta < -1e-12) or not self.vault_ok(t, float(np.sum(delta))):
            return blocks
        return None

    def deficits(self) -> list[tuple[float, int, int]]:
        inv = self.inventory()
        T, D = self.f.shape
        out = []
        for t in range(T):
            for d in range(D):
                need = self.s.operating_floor[t, d] - inv[t, d]
                if t == T - 1:
                    need = max(need, self.s.safety_min[d] * self.k - inv[t, d])
                if need > 1e-9:
                    out.append((float(need), t, d))
        out.sort(key=lambda item: (-item[0], item[1], item[2]))
        return out

    # -- injected-equality restoration ------------------------------------

    def restore_equalities(self) -> list[str]:
        """Rebuild the exact first-quarter totals that flooring broke, at
        the right-hand sides of the problem's ``force_base_*`` rows.

        Striking targets are met with whole granules plus at most one
        fractional top-up; blanking targets get one fractional top-up
        (or granule swaps when the coin total is pinned too). Returns
        the labels of the rows whose totals could not be restored.
        """
        unresolved = []
        for q in sorted(self.pinned):
            targets = self.pinned[q]
            if "striking" in targets and not self._restore_total(q, targets["striking"]):
                unresolved.append(f"force_base_striking[{q}]")  # the load is not tried on a broken count
            elif "blanking" in targets and not self._restore_weighted(q, targets["blanking"], "striking" in targets):
                unresolved.append(f"force_base_blanking[{q}]")
        return unresolved

    def _denoms_by_remainder(self, q: int):
        remainder = self.relaxed[q] - self.f[q]
        return sorted(range(self.f.shape[1]), key=lambda d: (-remainder[d], d))

    def _restore_total(self, q: int, target: float) -> bool:
        gap = target - float(np.sum(self.f[q]))
        if gap < -1e-6:
            return False
        guard = 0
        while gap >= self.g - 1e-9:
            placed = False
            for d in self._denoms_by_remainder(q):
                delta = np.zeros(self.f.shape[1])
                delta[d] = self.g
                if self.misfit(q, delta) is None:
                    self.f[q, d] += self.g
                    gap -= self.g
                    placed = True
                    break
            if not placed:
                return False
            guard += 1
            if guard > 100_000:
                return False
        return gap <= 1e-9 or self._top_up(q, gap, self.loads["striking"], "coin total")

    def _restore_weighted(self, q: int, target: float, pinned_total: bool) -> bool:
        D = self.f.shape[1]
        gap = target - float(self.rates @ self.f[q])
        if abs(gap) <= 1e-9:
            return True
        if not pinned_total:
            return gap >= -1e-6 and self._top_up(q, gap, self.rates, "blanking load")
        # the coin total is pinned too: move volume between two rates
        pairs = sorted(
            ((i, j) for i in range(D) for j in range(D) if self.rates[i] != self.rates[j]),
            key=lambda p: -abs(self.rates[p[0]] - self.rates[p[1]]),
        )
        for i, j in pairs:
            shift = gap / (self.rates[i] - self.rates[j])
            delta = np.zeros(D)
            delta[i] = shift
            delta[j] = -shift
            if self.misfit(q, delta) is None:
                self.f[q] += delta
                self.notes.append(
                    f"moved {abs(shift):g} coins between denominations {j} and {i} in quarter {q} "
                    "to restore the pinned blanking load"
                )
                return True
        return False

    def _top_up(self, q: int, gap: float, loads: np.ndarray, what: str) -> bool:
        """Close the last ``gap`` of a pinned total in quarter ``q`` with
        one fractional order on the first denomination, by remainder,
        that fits; ``loads`` is what one coin of each adds to the total."""
        for d in self._denoms_by_remainder(q):
            delta = np.zeros(self.f.shape[1])
            delta[d] = gap / loads[d]
            if self.misfit(q, delta) is None:
                self.f[q] += delta
                self.notes.append(
                    f"fractional top-up of {delta[d]:g} on denomination {d} in quarter {q} "
                    f"to restore the pinned {what}"
                )
                return True
        return False

    # -- floor repair -------------------------------------------------------

    def _donor_slack(self, t_add: int, d_from: int) -> float:
        """Stock the donor denomination can give up at ``t_add`` without
        dipping under its own floors (or terminal safety) later on."""
        inv = self.inventory()
        T = self.f.shape[0]
        slack = self.f[t_add, d_from]
        for t in range(t_add, T):
            need = self.s.operating_floor[t, d_from]
            if t == T - 1:
                need = max(need, self.s.safety_min[d_from] * self.k)
            slack = min(slack, inv[t, d_from] - need)
        return float(slack)

    def _swap_within(self, t_add: int, d: int, need: float) -> tuple[bool, list[tuple[int, str]]]:
        """Trade stock toward denomination ``d`` inside a quarter holding
        pinned totals, shaping the trade so every pinned quantity (coin
        count, blanking load, or both) stays exactly where it was.
        Trades may be fractional. Returns (made progress, capacity
        blocks seen)."""
        D = self.f.shape[1]
        kinds = self.pinned[t_add].keys()
        blocks: list[tuple[int, str]] = []

        def attempt(delta: np.ndarray, moved: float) -> bool:
            if moved < 1e-9:
                return False
            crossed = self.misfit(t_add, delta)
            if crossed is None:
                self.f[t_add] += delta
                self.notes.append(
                    f"traded {moved:g} coins toward denomination {d} in quarter "
                    f"{t_add} to repair a stock floor under a pinned total"
                )
                return True
            blocks.extend((t_add, process) for process in crossed)
            return False

        if kinds == {"blanking"} and self.rates[d] <= 1e-12:
            # the target denomination consumes no blanking days, so
            # stock can simply be added without touching the pinned load
            delta = np.zeros(D)
            delta[d] = need
            return attempt(delta, need), blocks

        donors = sorted(
            (df for df in range(D) if df != d),
            key=lambda df: -self._donor_slack(t_add, df),
        )
        # one donor gives up take / give coins per coin gained: blanking
        # days for blanking days under a pinned load, else one for one (a
        # pinned count, or both pinned and a donor of the target's rate)
        if kinds == {"blanking"}:
            trades = [(df, self.rates[df], self.rates[d]) for df in donors if self.rates[df] > 1e-12]
        elif kinds == {"striking"}:
            trades = [(df, 1.0, 1.0) for df in donors]
        else:
            trades = [(df, 1.0, 1.0) for df in donors if abs(self.rates[df] - self.rates[d]) <= 1e-12]
        for d_from, give, take in trades:
            amount = min(need, self._donor_slack(t_add, d_from) * give / take)
            delta = np.zeros(D)
            delta[d] = amount
            delta[d_from] = -amount * take / give
            if attempt(delta, amount):
                return True, blocks
        if len(kinds) == 2:
            # both totals pinned: two donors whose rates bracket the
            # target's split the withdrawal so count and load both stay put
            for i in donors:
                for j in donors:
                    span = self.rates[i] - self.rates[j]
                    if span <= 1e-12:
                        continue
                    w_i = (self.rates[d] - self.rates[j]) / span
                    w_j = 1.0 - w_i
                    if w_i < -1e-12 or w_j < -1e-12:
                        continue
                    amount = need
                    if w_i > 1e-12:
                        amount = min(amount, self._donor_slack(t_add, i) / w_i)
                    if w_j > 1e-12:
                        amount = min(amount, self._donor_slack(t_add, j) / w_j)
                    delta = np.zeros(D)
                    delta[d] = amount
                    delta[i] -= amount * w_i
                    delta[j] -= amount * w_j
                    if attempt(delta, amount):
                        return True, blocks
        return False, blocks

    def repair_floors(self):
        """Greedy largest-deficit repair. Returns None when every floor
        holds, otherwise the capacity-blocked (quarter, process) pairs
        seen while failing to place any increment; an empty list means
        no higher shift level can buy a way out (the vault, or a pinned
        quarter with no redistributable stock, is what blocked)."""
        D = self.f.shape[1]
        while True:
            shortfalls = self.deficits()
            if not shortfalls:
                return None
            placed = False
            capacity_blocked: list[tuple[int, str]] = []
            for need, t, d in shortfalls:
                for t_add in range(t, -1, -1):
                    if t_add in self.pinned:
                        # the quarter's total is fixed: trade stock
                        # between denominations instead of adding any
                        placed, blocks = self._swap_within(t_add, d, need)
                        if placed:
                            break
                        capacity_blocked.extend(blocks)
                        continue
                    delta = np.zeros(D)
                    delta[d] = self.g
                    crossed = self.misfit(t_add, delta)
                    if crossed is None:
                        self.f[t_add, d] += self.g
                        placed = True
                        break
                    capacity_blocked.extend((t_add, process) for process in crossed)
                if placed:
                    break
            if placed:
                continue
            return list(dict.fromkeys(capacity_blocked))


def integerize(
    problem: StandardFormProblem,
    solution: Solution,
    scenario: Scenario,
    *,
    granularity: float = 1.0,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Solution:
    """Round a relaxed plan to production granules and repair the damage.

    ``solution`` must be an optimal solve of ``problem``, the model built
    from ``scenario`` with any restrictions ``restrict`` added; the
    repair reads its capacities and pinned totals off that model's rows.
    Orders are floored to multiples of ``granularity`` (values already
    on the grid are kept). Pinned first-quarter totals are rebuilt
    first, then stock floors are repaired by greedily adding granules at
    the largest deficit, never crossing the capacity the model's rows
    give the solution's shift levels; inside quarters whose total is
    pinned, granules are traded between denominations instead.

    When no increment can be placed within capacity, the repair
    escalates: it raises to 1 the lower bound of the level above the
    solution's on a blocked process and quarter, on a copy of the model
    that keeps every earlier escalation's bound, re-solves that copy and
    repairs its solution. Each escalation switches on a level the
    previous solution left off, so there are at most as many as the
    model has binaries. Every escalation leaves a note with its cost
    delta from ``solution``. A repair no escalation can unblock (the
    vault, pinned stock with nothing to trade, or no feasible next
    level) raises RepairInfeasibleError, and so does a final repair
    that leaves a pinned total unrebuilt, naming its ``force_base_*``
    rows: every plan returned meets those rows of the model it was
    repaired on. The result keeps the cost and shifts of the solution
    it repaired, not those of its usage.
    """
    if solution.status != "optimal":
        raise ValueError("only optimal solutions can be integerized")
    if not (math.isfinite(granularity) and granularity > 0):
        raise ValueError(f"granularity must be finite and positive, got {granularity}")

    given_cost = solution.cost
    while True:
        work = _Repair(problem, solution, scenario, granularity)
        unrestored = work.restore_equalities()
        blocked = work.repair_floors()
        if blocked is None:
            plan = MintingPlan(orders=work.f, inventory=work.inventory())
            if unrestored:
                raise RepairInfeasibleError(f"could not restore {', '.join(unrestored)}", partial_plan=plan)
            return replace(solution, plan=plan, notes=solution.notes + tuple(work.notes))

        # an empty block list means nothing capacity-shaped stood in the
        # way (vault or pinned stock), so no higher shift level can help
        ordered = sorted(blocked, key=lambda pair: (_SEARCH_ORDER.index(pair[1]), -pair[0]))
        for t_e, process in ordered:
            new_level = solution.shifts.levels(process)[t_e] + 1
            if new_level > problem.n_levels(process):
                continue
            lower = list(problem.lower)
            lower[level_column(problem, process, t_e, new_level)] = 1.0
            escalated_problem = replace(problem, lower=tuple(lower))
            try:
                escalated = solve_mip(escalated_problem, node_cap=node_cap)
            except NodeCapExceeded:
                continue
            if escalated.status == "optimal":
                break
        else:
            partial = MintingPlan(orders=work.f, inventory=work.inventory())
            raise RepairInfeasibleError(
                "could not repair stock floors within the available capacity", partial_plan=partial
            )
        note = (
            f"escalated {process} to level {new_level} in quarter {t_e}; "
            f"cost delta {escalated.cost - given_cost:+g}"
        )
        problem = escalated_problem
        solution = replace(escalated, notes=solution.notes + (note,))


# ---------------------------------------------------------------------------
# enumeration oracle and random instances
# ---------------------------------------------------------------------------

def exhaustive_objective(problem: StandardFormProblem) -> tuple[str, float]:
    """Independent optimum by brute force: fix every admissible 0/1
    assignment of the shift binaries, solve the remaining LP, and keep
    the feasible candidate with the least bill (to 9 decimals), then the
    largest K. Its LPs maximize K alone, and the bill is priced from
    the model's binaries.

    Assignments switching two levels of the same ladder on in one
    quarter are skipped: the model's own choice rows make their LPs
    infeasible, so they can never carry the optimum. Levels whose upper
    bound is 0 (a ``forbid_extra_*`` restriction) are never switched on.
    Every LP solves one K pass of the model with every level's upper
    bound at 0 and its lower bound kept, so a level the model switches
    on stays on: an assignment leaving it off is crossed, and infeasible
    with no simplex run. A bounds override fixes only the levels its
    assignment switches on at 1; the bill sums their costs in column
    order. Every LP runs the dual simplex: the first from that pass's
    slack basis (``slack_start``), each later one from the last result
    that carries a dual-feasible basis, whether optimal or proved
    infeasible, since neighbouring assignments differ in a few bounds. A
    failed warm start falls back to a cold solve.
    Exponential in the horizon; meant for validating the tree search on
    tiny instances.
    """
    options = [  # per ladder: switch no level on, or exactly one the model's bounds allow
        [None] + [col for col in ladder if problem.upper[col] > 0.0] for ladder in _ladders_in_search_order(problem)
    ]
    off = _k_pass(problem, off=problem.binaries)

    best_key = None
    best_objective = math.nan
    last = slack_start(off)
    for combo in product(*options):
        levels = sorted(col for col in combo if col is not None)
        res = solve_lp(off, bounds_override={col: (1.0, 1.0) for col in levels}, warm_start=last)
        if res.can_warm_start:
            last = res
        if res.status != "optimal":
            continue
        cost = float(sum(problem.objective[col] for col in levels))
        k = -res.objective
        key = (round(cost, 9), -k)
        if best_key is None or key < best_key:
            best_key = key
            best_objective = cost - k
    if best_key is None:
        return ("infeasible", math.nan)
    return ("optimal", best_objective)


def random_instance(
    rng: np.random.Generator,
    *,
    horizon: int = 2,
    n_denoms: int = 2,
    n_blanking_levels: int = 2,
    n_striking_levels: int = 2,
) -> tuple[Scenario, MintConfig]:
    """Draw a small solvable-or-not instance for solver validation.

    Capacity ladders use non-increasing level increments (each extra
    shift adds at most as much as the previous one), demand runs from
    slack to beyond base capacity, and a quarter of the draws include a
    one-quarter disruption on a random process. Raises ValueError when
    a size is below 1.
    """
    sizes = {
        "horizon": horizon,
        "n_denoms": n_denoms,
        "n_blanking_levels": n_blanking_levels,
        "n_striking_levels": n_striking_levels,
    }
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be 1 or more, got {value}")
    D, T = n_denoms, horizon
    rates = rng.uniform(0.08, 0.3, D)
    weights = np.where(rng.random(D) < 0.4, 0.0, rng.uniform(1.0, 6.0, D))
    specs = tuple(
        CoinSpec(denomination=f"d{i + 1}", alloy_weight=float(weights[i]), blanking_rate=float(rates[i]))
        for i in range(D)
    )

    def ladder(base: float, n_levels: int, rel_lo: float, rel_hi: float, cost_lo: float, cost_hi: float):
        gaps = np.sort(rng.uniform(rel_lo * base, rel_hi * base, n_levels))[::-1]
        breaks = base + np.concatenate([[0.0], np.cumsum(gaps)])
        level_costs = np.sort(rng.uniform(cost_lo, cost_hi, n_levels))
        return tuple(float(v) for v in breaks), tuple(float(v) for v in level_costs)

    z0 = float(rng.uniform(50, 150))
    striking_breaks, striking_costs = ladder(z0, n_striking_levels, 0.12, 0.35, 4.0, 25.0)
    x0 = float(np.mean(rates) * z0 * rng.uniform(0.7, 1.15))
    blanking_breaks, blanking_costs = ladder(x0, n_blanking_levels, 0.1, 0.3, 2.0, 20.0)
    y0 = max(float(np.mean(weights) * z0 * rng.uniform(0.7, 1.6)), 1.0)
    config = MintConfig(
        blanking_breakpoints=blanking_breaks,
        blanking_costs=blanking_costs,
        annealing_base=y0,
        annealing_max=y0 * float(rng.uniform(1.3, 1.9)),
        annealing_cost=float(rng.uniform(3.0, 20.0)),
        striking_breakpoints=striking_breaks,
        striking_costs=striking_costs,
    )

    pressure = rng.uniform(0.35, 1.15)  # mean quarterly demand as a share of base striking
    demand = rng.uniform(0.0, 2.0 * pressure * z0 / D, (T, D))
    floors = demand * rng.uniform(0.15, 0.45, (T, D))
    initial = floors[0] * rng.uniform(0.9, 1.6, D) + rng.uniform(0.0, z0 / (4 * D), D)
    safety = rng.uniform(0.0, 0.3, D) * np.maximum(demand.mean(axis=0), 0.5)
    vault = float(max(initial.sum(), floors.sum(axis=1).max()) * rng.uniform(1.15, 2.0) + rng.uniform(0.0, z0))

    disruptions = ()
    if rng.random() < 0.25:
        disruptions = (
            Disruption(
                quarter=int(rng.integers(0, T)),
                process=str(rng.choice(["blanking", "annealing", "striking"])),
                capacity_scale=float(rng.uniform(0.45, 0.95)),
            ),
        )

    scenario = Scenario(
        horizon=T,
        coin_specs=specs,
        demand=demand,
        operating_floor=floors,
        vault_cap=vault,
        safety_min=safety,
        initial_inventory=initial,
        disruptions=disruptions,
    )
    return scenario, config

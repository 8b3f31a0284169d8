"""Mixed-integer model construction, auditing, and a text dump format.

The decision variables for a horizon of T quarters and D denominations
are laid out in one flat column vector, in this order:

* ``f[t,d]``  production order (millions of coins), continuous
* ``E[t,d]``  end-of-quarter inventory, continuous
* ``c[t,i]``  blanking extra level i selected in quarter t, binary
* ``h[t]``    annealing extra shift in quarter t, binary
* ``a[t,j]``  striking extra level j selected in quarter t, binary
* ``K``       safety-stock multiplier, continuous in [0, k_max]

A model's ``columns`` are these names, and nothing else records what a
column is. Each block runs quarter by quarter, but no reader relies on
that: the models of one column layout share one table parsed from the
names, which maps each (process, quarter) to its level columns
(``ladders``), each quarter and denomination to its order and stock
(``plan_columns``), and lists every level column (``binaries``). A new
column kind is one name pattern in ``_NAME_RE`` plus its place in
``build``.

The objective is the extra-shift bill: it charges every selected extra
level and puts nothing on ``K``. ``bnb.solve_mip`` minimizes the bill,
then adds K's reward itself and maximizes K at that bill.
``build`` writes the three processes in one loop: a process's capacity
row charges each order its per-coin load from ``model.coin_loads``
(blanking days, alloy tons, or one coin) and lets at most one extra
level, picked by the level-choice row, raise the free base capacity by
that level's own step (its breakpoint minus the one below). Inventory
rows tie stocks to orders and demand; floor, vault, and terminal rows
bound the stocks. Equal rows of live built models are one object.
``restrict`` adds first-quarter restrictions as rows and bounds, and
``StandardFormProblem.injected`` reads them back.
``level_capacity`` reads what a capacity row allows at a level.
``parse_lp_text`` reads the ``mintplan-lp v3`` text ``export_lp_text``
writes.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .model import (
    PROCESSES,
    MintConfig,
    MintingPlan,
    MintPlanError,
    Scenario,
    ShiftSelection,
    Solution,
    coin_loads,
    scaled_breakpoints,
    validate_scenario,
)

#: Injected restriction kinds: the ``force_base_*`` kinds add a row
#: labeled after the restriction, the ``forbid_extra_*`` kinds fix the
#: quarter's level binaries at 0 through their upper bounds.
INJECTED_FAMILIES = (
    "force_base_striking",
    "force_base_blanking",
    "forbid_extra_striking",
    "forbid_extra_blanking",
    "forbid_extra_annealing",
)

#: The kind of each process's level binaries, and its inverse.
_BINARY_KIND_BY_PROCESS = {"blanking": "c", "annealing": "h", "striking": "a"}
_PROCESS_BY_KIND = {kind: process for process, kind in _BINARY_KIND_BY_PROCESS.items()}

LP_HEADER = "mintplan-lp v3"

#: Default ceiling for the safety-stock multiplier.
DEFAULT_K_MAX = 2.0

#: Absolute tolerance used by ``check_solution``.
CHECK_TOL = 1e-6


class LpFormatError(MintPlanError):
    """An LP text document is malformed."""


#: A column's name: ``f[t,d]``, ``E[t,d]``, ``c[t,i]``, ``h[t]``, ``a[t,j]`` or
#: ``K``. Subscripts have no leading zeros, so each column has one name.
_NUMBER = "(0|[1-9][0-9]*)"
_NAME_RE = re.compile(rf"([fEca])\[{_NUMBER},{_NUMBER}\]|h\[{_NUMBER}\]|K")


class _WeakReferable:
    """A ``__weakref__`` slot for a slotted dataclass, which Python 3.10's
    ``dataclass`` cannot add itself."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Row(_WeakReferable):
    """One linear constraint: ``sum(coeff * x[col]) relation rhs``.

    ``coeffs`` is sparse, sorted by column, and never stores zeros.
    """

    label: str
    coeffs: tuple[tuple[int, float], ...]
    relation: str
    rhs: float

    def __post_init__(self):
        if self.relation not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {self.relation!r}")

    def value(self, x: np.ndarray) -> float:
        return float(sum(coeff * x[col] for col, coeff in self.coeffs))

    def violation(self, x: np.ndarray) -> float:
        """How far the point is on the wrong side (0 when satisfied)."""
        lhs = self.value(x)
        if self.relation == "<=":
            return max(0.0, lhs - self.rhs)
        if self.relation == ">=":
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


#: Every live row ``build`` made, so that equal rows are one object, freed
#: with the last model that holds it.
_ROWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class InjectedConstraint:
    """A first-quarter restriction, by family name and quarter."""

    kind: str
    quarter: int = 0

    def __post_init__(self):
        if self.kind not in INJECTED_FAMILIES:
            raise ValueError(f"unknown injected constraint kind {self.kind!r}")
        if self.quarter < 0:
            raise ValueError("quarter must be >= 0")

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.quarter}]"

    @property
    def process(self) -> str:
        """The process the restriction applies to: the kind's last word."""
        return self.kind.rsplit("_", 1)[1]


@dataclass(frozen=True)
class StandardFormProblem:
    """A fully built model: columns, objective, rows, and bounds.

    ``columns`` holds each column's name (``f[0,1]``, ``h[2]``, ``K``);
    the models of one column layout share one table parsed from them,
    which ``binaries`` (every ladder column), ``ladders``,
    ``plan_columns`` and ``column_index`` read. A name that is no
    column, a repeated name, or a ladder that skips a level raises
    ValueError when the model is made.
    ``objective`` is the extra-shift bill: the level binaries' costs,
    and 0.0 on ``K``, whose reward ``bnb.solve_mip`` adds itself.
    ``injected`` reads the model's restrictions off its rows and bounds.
    The problem is the whole model: solving it needs no scenario or
    config, so a parsed dump solves as the built model does. Every
    column's bounds must be finite (ValueError otherwise), so every LP
    over the model is boxed; a lower bound above its upper is allowed
    and makes the model infeasible.
    """

    columns: tuple[str, ...]
    objective: tuple[float, ...]
    rows: tuple[Row, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        n = len(self.columns)
        if not (len(self.objective) == len(self.lower) == len(self.upper) == n):
            raise ValueError("objective and bounds must cover every column")
        if not (all(map(math.isfinite, self.lower)) and all(map(math.isfinite, self.upper))):
            raise ValueError("every column's bounds must be finite")
        self._layout  # reading the layout checks the names

    @cached_property
    def injected(self) -> tuple[InjectedConstraint, ...]:
        """The model's restrictions: each row labeled after a restriction
        family, in row order, then one ``forbid_extra_*`` per quarter and
        process whose level binaries all have upper bound 0, in column
        order. Zero upper bounds on only part of a ladder are bounds and
        no restriction."""
        found = []
        for row in self.rows:
            family, _, quarter = row.label[:-1].partition("[")
            if family in INJECTED_FAMILIES:
                found.append(InjectedConstraint(kind=family, quarter=int(quarter)))
        for (process, quarter), ladder in self.ladders.items():
            if all(self.upper[col] == 0.0 for col in ladder):
                found.append(InjectedConstraint(kind=f"forbid_extra_{process}", quarter=quarter))
        return tuple(found)

    @cached_property
    def _layout(self) -> _Layout:
        return _shared_layout(self.columns)[1]

    def column_index(self, kind: str, quarter: int | None = None, index: int | None = None) -> int:
        try:
            return self._layout.column_by_key[(kind, quarter, index)]
        except KeyError:
            raise KeyError(f"no column {kind!r} quarter={quarter} index={index}") from None

    @property
    def binaries(self) -> tuple[int, ...]:
        """Every ladder column, in column order."""
        return self._layout.binaries

    @property
    def ladders(self) -> Mapping[tuple[str, int], tuple[int, ...]]:
        """(process, quarter) -> its level columns, level 1 first."""
        return self._layout.ladders

    @property
    def plan_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The (quarter x denomination) columns of the orders and the stocks."""
        return self._layout.plan_columns

    @cached_property
    def row_by_label(self) -> dict:
        return {row.label: row for row in self.rows}

    @property
    def horizon(self) -> int:
        return self.plan_columns[0].shape[0]

    def n_levels(self, process: str) -> int:
        """How many extra levels ``process``'s longest ladder has."""
        return self._layout.n_levels[process]

    @property
    def k_max(self) -> float:
        return self.upper[self.column_index("K")]


class _Layout(NamedTuple):
    """Where one column layout keeps each decision."""

    column_by_key: Mapping  # (kind, quarter, index) -> column
    ladders: Mapping  # (process, quarter) -> level columns, level 1 first
    n_levels: Mapping  # process -> length of its longest ladder
    plan_columns: tuple[np.ndarray, np.ndarray] | None  # orders, stocks; None in a bare LP
    binaries: tuple[int, ...]  # every ladder column, in column order


@lru_cache(maxsize=64)
def _shared_layout(columns: tuple[str, ...]) -> tuple[tuple[str, ...], _Layout]:
    """The first-seen copy of a column layout and its table, parsed from
    the column names, which every model of that shape shares. ValueError
    when a name is no column or repeats, or when a ladder skips a level."""
    by_key: dict = {}
    ladders: dict = {}
    for col, name in enumerate(columns):
        m = _NAME_RE.fullmatch(name)
        if m is None:
            raise ValueError(f"unknown column name {name!r}")
        kind, quarter, index, h_quarter = m.groups()
        if name == "K":
            key = ("K", None, None)
        elif h_quarter is not None:
            key = ("h", int(h_quarter), None)
        else:
            key = (kind, int(quarter), int(index))
        if key in by_key:
            raise ValueError(f"column {name!r} appears twice")
        by_key[key] = col
        if key[0] in _PROCESS_BY_KIND:
            level = 1 if key[0] == "h" else key[2]  # annealing's one extra shift is its level 1
            ladders.setdefault((_PROCESS_BY_KIND[key[0]], key[1]), {})[level] = col
    for (process, quarter), by_level in ladders.items():
        if sorted(by_level) != list(range(1, len(by_level) + 1)):
            raise ValueError(f"the {process} levels of quarter {quarter} must run 1 to {len(by_level)}")
        ladders[process, quarter] = tuple(by_level[level] for level in range(1, len(by_level) + 1))
    n_levels = {p: max((len(ladder) for (q, _), ladder in ladders.items() if q == p), default=0) for p in PROCESSES}
    binaries = tuple(sorted(col for ladder in ladders.values() for col in ladder))
    orders = [(t, d) for kind, t, d in by_key if kind == "f"]
    try:
        T, D = 1 + max(t for t, _ in orders), 1 + max(d for _, d in orders)
        plan_columns = tuple(np.array([[by_key[kind, t, d] for d in range(D)] for t in range(T)]) for kind in "fE")
    except (KeyError, ValueError):  # no full grid of orders and stocks
        plan_columns = None
    for grid in plan_columns or ():
        grid.flags.writeable = False
    layout = _Layout(*(MappingProxyType(m) for m in (by_key, ladders, n_levels)), plan_columns, binaries)
    return columns, layout


def build(
    scenario: Scenario,
    config: MintConfig,
    *,
    k_max: float = DEFAULT_K_MAX,
) -> StandardFormProblem:
    """Assemble the full, unrestricted model for one scenario.

    The scenario must be clean per ``validate_scenario``. ``restrict``
    derives the restricted variants from the result.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ValueError("cannot build from an invalid scenario: " + "; ".join(violations))
    if not math.isfinite(k_max) or k_max < 0:
        raise ValueError(f"k_max must be finite and >= 0, got {k_max}")

    s, cfg = scenario, config
    T, D = s.horizon, s.n_denoms
    load = coin_loads(s.coin_specs)
    eff = {process: [scaled_breakpoints(cfg, s.disruptions, t, process) for t in range(T)] for process in PROCESSES}

    def f(t: int, d: int) -> int:
        return t * D + d

    def e(t: int, d: int) -> int:
        return T * D + t * D + d

    columns = [f"{kind}[{t},{d}]" for kind in "fE" for t in range(T) for d in range(D)]
    # lists rather than arrays, so the tuples stored below share a few
    # float objects instead of holding a fresh float per column
    objective = [0.0] * len(columns)
    levels = {}  # process -> per quarter, the columns of extra levels 1..n
    for process in PROCESSES:
        kind = _BINARY_KIND_BY_PROCESS[process]
        level_costs = cfg.level_costs(process)
        levels[process] = []
        for t in range(T):
            levels[process].append(range(len(columns), len(columns) + len(level_costs)))
            for j, cost in enumerate(level_costs, 1):
                columns.append(f"h[{t}]" if kind == "h" else f"{kind}[{t},{j}]")
                objective.append(float(cost))
    col_k = len(columns)
    columns.append("K")
    objective.append(0.0)

    def row(label: str, pairs: Iterable[tuple[int, float]], relation: str, rhs: float) -> Row:
        coeffs = tuple(sorted(((col, float(coeff)) for col, coeff in pairs if coeff != 0.0), key=lambda p: p[0]))
        key = (label, coeffs, relation, rhs, math.copysign(1.0, rhs) > 0.0)  # -0.0 == 0.0, but its text differs
        shared = _ROWS.get(key)
        if shared is None:
            shared = _ROWS[key] = Row(label=label, coeffs=coeffs, relation=relation, rhs=rhs)
        return shared

    rows: list[Row] = []
    # the row order sets the simplex's pivot path, which tests/golden/pivot_path.json pins
    for process in ("annealing", "striking", "blanking"):
        for t in range(T):
            b = eff[process][t]
            rows.append(
                row(
                    label=f"{process}_capacity[{t}]",
                    pairs=[(f(t, d), load[process][d]) for d in range(D)]
                    + [(col, -(b[j] - b[j - 1])) for j, col in enumerate(levels[process][t], 1)],
                    relation="<=",
                    rhs=b[0],
                )
            )
        if process != "annealing":  # a one-level ladder needs no choice row
            for t in range(T):
                rows.append(
                    row(
                        label=f"{process}_level_choice[{t}]",
                        pairs=[(col, 1.0) for col in levels[process][t]],
                        relation="<=",
                        rhs=1.0,
                    )
                )
    for t in range(T):
        for d in range(D):
            if t == 0:
                pairs = [(e(0, d), 1.0), (f(0, d), -1.0)]
                rhs = float(s.initial_inventory[d] - s.demand[0, d])
            else:
                pairs = [(e(t, d), 1.0), (e(t - 1, d), -1.0), (f(t, d), -1.0)]
                rhs = float(-s.demand[t, d])
            rows.append(row(label=f"inventory_balance[{t},{d}]", pairs=pairs, relation="=", rhs=rhs))
    for d in range(D):
        rows.append(
            row(
                label=f"terminal_stock[{d}]",
                pairs=[(e(T - 1, d), 1.0), (col_k, -float(s.safety_min[d]))],
                relation=">=",
                rhs=0.0,
            )
        )
    for t in range(T):
        rows.append(
            row(
                label=f"vault_capacity[{t}]",
                pairs=[(e(t, d), 1.0) for d in range(D)],
                relation="<=",
                rhs=float(s.vault_cap),
            )
        )
    for t in range(T):
        for d in range(D):
            rows.append(
                row(
                    label=f"operating_floor[{t},{d}]",
                    pairs=[(e(t, d), 1.0)],
                    relation=">=",
                    rhs=float(s.operating_floor[t, d]),
                )
            )

    upper = [float(eff["striking"][t][-1]) for t in range(T) for _ in range(D)]  # orders: the top striking level
    upper += [float(s.vault_cap)] * (T * D) + [1.0] * (col_k - 2 * T * D) + [float(k_max)]

    return StandardFormProblem(
        columns=_shared_layout(tuple(columns))[0],
        objective=tuple(objective),
        rows=tuple(rows),
        lower=(0.0,) * len(columns),
        upper=tuple(upper),
    )


def restrict(problem: StandardFormProblem, injected: Sequence[InjectedConstraint]) -> StandardFormProblem:
    """The model with first-quarter restrictions added, read off its own
    rows and columns.

    A ``force_base_*`` restriction appends the order terms of its
    quarter's capacity row as an equality at that row's right-hand side,
    labeled after the restriction; a ``forbid_extra_*`` one zeroes the
    upper bounds of its quarter's level binaries. Force rows append in
    the order given, so ``restrict(restrict(m, a), b)`` equals
    ``restrict(m, a + b)``; the result's ``injected`` lists them all in
    the model's order. A restriction already on the model, or given
    twice, raises ValueError.
    """
    rows = list(problem.rows)
    upper = list(problem.upper)
    seen = {inj.label for inj in problem.injected}
    for inj in injected:
        q = inj.quarter
        if not 0 <= q < problem.horizon:
            raise ValueError(f"injected constraint quarter {q} outside horizon {problem.horizon}")
        if inj.label in seen:
            raise ValueError(f"restriction {inj.label} is already on the model")
        seen.add(inj.label)
        if inj.kind.startswith("force_base_"):
            capacity = problem.row_by_label[f"{inj.process}_capacity[{q}]"]
            orders = tuple((col, coeff) for col, coeff in capacity.coeffs if col in problem.plan_columns[0][q])
            rows.append(Row(label=inj.label, coeffs=orders, relation="=", rhs=capacity.rhs))
        else:
            for col in problem.ladders[inj.process, q]:
                upper[col] = 0.0
    return replace(problem, rows=tuple(rows), upper=tuple(upper))


def level_capacity(problem: StandardFormProblem, process: str, quarter: int, level: int) -> float:
    """The usage ceiling the model's capacity row gives ``process`` in
    ``quarter`` when extra level ``level`` is switched on (0: none): the
    row's right-hand side minus that level binary's coefficient."""
    row = problem.row_by_label[f"{process}_capacity[{quarter}]"]
    if level == 0:
        return row.rhs
    return row.rhs - dict(row.coeffs).get(level_column(problem, process, quarter, level), 0.0)


def level_column(problem: StandardFormProblem, process: str, quarter: int, level: int) -> int:
    """The column of ``process``'s extra level ``level`` (1 or more) in
    ``quarter``; ValueError when the model's ladder lacks it."""
    ladder = problem.ladders.get((process, quarter), ())
    if not 1 <= level <= len(ladder):
        raise ValueError(f"{process} level {level} exceeds the model's ladder in quarter {quarter}")
    return ladder[level - 1]


def check_solution(problem: StandardFormProblem, assignment: Sequence[float], tol: float = CHECK_TOL) -> list[str]:
    """Audit a full assignment against the model.

    Returns the labels of violated rows plus ``bound[name]`` for bound
    violations and ``binary[name]`` for binaries away from {0, 1}, all
    at absolute tolerance ``tol``. Empty list means the point is valid.
    """
    x = np.asarray(assignment, dtype=float)
    if x.shape != (len(problem.columns),):
        raise ValueError(f"assignment must cover all {len(problem.columns)} columns, got shape {x.shape}")
    out = []
    for row in problem.rows:
        if row.violation(x) > tol:
            out.append(row.label)
    for col, name in enumerate(problem.columns):  # written so that a NaN fails
        if not problem.lower[col] - tol <= x[col] <= problem.upper[col] + tol:
            out.append(f"bound[{name}]")
    for col in problem.binaries:
        if not min(abs(x[col]), abs(x[col] - 1.0)) <= tol:
            out.append(f"binary[{problem.columns[col]}]")
    return out


# ---------------------------------------------------------------------------
# solution <-> assignment
# ---------------------------------------------------------------------------


def assignment_from_solution(problem: StandardFormProblem, solution: Solution) -> np.ndarray:
    """Rebuild a full column assignment from a solution.

    Orders, stocks, K, and each ladder's level binaries come straight
    from the solution; a level the model's ladder lacks raises
    ValueError. ``plan_of`` and ``shifts_of`` read them back.
    """
    if solution.status != "optimal":
        raise ValueError("only optimal solutions can be turned into assignments")
    orders, stocks = problem.plan_columns
    x = np.zeros(len(problem.columns))
    x[orders] = solution.plan.orders
    x[stocks] = solution.plan.inventory
    x[problem.column_index("K")] = solution.k

    for process in PROCESSES:
        for t, level in enumerate(solution.shifts.levels(process)):
            if level:
                x[level_column(problem, process, t, level)] = 1.0
    return x


def plan_of(problem: StandardFormProblem, x: np.ndarray) -> MintingPlan:
    """The orders and stocks of an assignment, each clipped at 0 from below."""
    orders, stocks = problem.plan_columns
    return MintingPlan(orders=np.maximum(x[orders], 0.0), inventory=np.maximum(x[stocks], 0.0))


def shifts_of(problem: StandardFormProblem, x: np.ndarray) -> ShiftSelection:
    """The extra level each process runs in each quarter of an
    assignment: the highest of its ladder above 0.5, or 0."""
    levels = {process: [0] * problem.horizon for process in PROCESSES}
    for (process, quarter), ladder in problem.ladders.items():
        for level, col in enumerate(ladder, 1):
            if x[col] > 0.5:
                levels[process][quarter] = level
    return ShiftSelection(**levels)


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def _terms_text(problem: StandardFormProblem, pairs: Iterable[tuple[int, float]]) -> str:
    parts = [f"{coeff!r} {problem.columns[col]}" for col, coeff in pairs]
    return " + ".join(parts) if parts else "0"


def export_lp_text(problem: StandardFormProblem) -> str:
    """Serialize the model to the versioned text form.

    The dump carries the whole model (columns, objective, rows, bounds,
    binaries). Injected restrictions travel as what they are in
    the model: a ``force_base_*`` one as its labeled row, a
    ``forbid_extra_*`` one as zero upper bounds. Floats use shortest
    round-tripping repr, so ``parse_lp_text`` reproduces the model
    exactly.
    """
    lines = [LP_HEADER, "minimize"]
    obj_pairs = [(col, coeff) for col, coeff in enumerate(problem.objective) if coeff != 0.0]
    lines.append(f"  {_terms_text(problem, obj_pairs)}")
    lines.append("subject to")
    for row in problem.rows:
        lines.append(f"  {row.label}: {_terms_text(problem, row.coeffs)} {row.relation} {row.rhs!r}")
    lines.append("bounds")
    for col, name in enumerate(problem.columns):
        lines.append(f"  {problem.lower[col]!r} <= {name} <= {problem.upper[col]!r}")
    lines.append("binary")
    for col in problem.binaries:
        lines.append(f"  {problem.columns[col]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _lp_number(token: str, what: str) -> float:
    """A finite number of an LP document; ``build`` never writes ``nan``
    or ``inf``, and the solver cannot take them."""
    try:
        value = float(token)
    except ValueError:
        raise LpFormatError(f"malformed {what}") from None
    if not math.isfinite(value):
        raise LpFormatError(f"non-finite {what}")
    return value


def _parse_terms(text: str, column_of: dict) -> tuple[tuple[int, float], ...]:
    text = text.strip()
    if text == "0":
        return ()
    coeff_of: dict[int, float] = {}
    for part in text.split(" + "):
        tokens = part.split()
        if len(tokens) != 2:
            raise LpFormatError(f"malformed term {part!r}")
        coeff = _lp_number(tokens[0], f"coefficient in term {part!r}")
        if tokens[1] not in column_of:
            raise LpFormatError(f"term references unknown column {tokens[1]!r}")
        if column_of[tokens[1]] in coeff_of:
            raise LpFormatError(f"column {tokens[1]!r} appears twice in one sum")
        coeff_of[column_of[tokens[1]]] = coeff
    return tuple(sorted((col, coeff) for col, coeff in coeff_of.items() if coeff != 0.0))


def parse_lp_text(text: str) -> StandardFormProblem:
    """Inverse of ``export_lp_text``: the document must start with the
    ``mintplan-lp v3`` header.

    The columns must include ``K`` and a full grid of orders and stocks
    with every shift level in one of its quarters, the objective must
    price shift levels and nothing else, the ``binary`` section must
    list every shift-level column once and nothing else, no sum may name
    a column twice, and no two rows may share a label; a bad column name
    or a ladder that skips a level fails as it does in
    ``StandardFormProblem`` (``LpFormatError`` for all). Zero terms are
    dropped. Like the exported model, the parsed one
    reads ``injected`` off its rows and bounds, so the round trip gives
    back an equal one."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines[:1] != [LP_HEADER]:
        raise LpFormatError(f"missing or unsupported header; expected {LP_HEADER!r}")

    sections: dict[str, list[str]] = {"minimize": [], "subject to": [], "bounds": [], "binary": []}
    current: str | None = None
    seen = []
    for ln in lines[1:]:
        if ln == "end":
            current = "end"
            continue
        if ln in sections:
            current = ln
            seen.append(ln)
            continue
        if current is None or current == "end":
            raise LpFormatError(f"unexpected line outside any section: {ln!r}")
        sections[current].append(ln)
    if seen != ["minimize", "subject to", "bounds", "binary"]:
        raise LpFormatError("sections must appear once each, in order: minimize, subject to, bounds, binary")

    bound_re = re.compile(r"^(\S+) <= (\S+) <= (\S+)$")
    names: list[str] = []
    lower: list[float] = []
    upper: list[float] = []
    for ln in sections["bounds"]:
        m = bound_re.match(ln)
        if m is None:
            raise LpFormatError(f"malformed bounds line {ln!r}")
        names.append(m.group(2))
        lower.append(_lp_number(m.group(1), f"bound value in {ln!r}"))
        upper.append(_lp_number(m.group(3), f"bound value in {ln!r}"))
    try:
        columns, layout = _shared_layout(tuple(names))
    except ValueError as exc:
        raise LpFormatError(str(exc)) from None
    if ("K", None, None) not in layout.column_by_key or layout.plan_columns is None:
        raise LpFormatError("the columns must include K and a full grid of orders and stocks")
    if any(quarter >= len(layout.plan_columns[0]) for _, quarter in layout.ladders):
        raise LpFormatError("every shift level must lie in a quarter of the order grid")
    column_of = {name: col for col, name in enumerate(columns)}
    levels = set(layout.binaries)

    if len(sections["minimize"]) != 1:
        raise LpFormatError("minimize section must hold exactly one line")
    objective = [0.0] * len(columns)
    for col, coeff in _parse_terms(sections["minimize"][0], column_of):
        if col not in levels:
            raise LpFormatError(f"the objective prices shift levels only, not {columns[col]!r}")
        objective[col] = coeff

    row_re = re.compile(r"^([A-Za-z_]+\[[0-9,]+\]): (.*) (<=|=|>=) (\S+)$")
    rows: list[Row] = []
    labels: set[str] = set()
    for ln in sections["subject to"]:
        m = row_re.match(ln)
        if m is None:
            raise LpFormatError(f"malformed constraint line {ln!r}")
        label, body, relation, rhs_text = m.groups()
        if label in labels:
            raise LpFormatError(f"row label {label!r} appears twice")
        labels.add(label)
        rhs = _lp_number(rhs_text, f"right-hand side in {ln!r}")
        rows.append(Row(label=label, coeffs=_parse_terms(body, column_of), relation=relation, rhs=rhs))
        family, _, quarter = label[:-1].partition("[")
        if family in INJECTED_FAMILIES and not quarter.isdigit():
            raise LpFormatError(f"restriction row {label!r} must name one quarter")

    if sorted(sections["binary"]) != sorted(columns[col] for col in layout.binaries):
        raise LpFormatError("the binary section must list every shift-level column once, and nothing else")

    return StandardFormProblem(
        columns=columns,
        objective=tuple(objective),
        rows=tuple(rows),
        lower=tuple(lower),
        upper=tuple(upper),
    )

"""Mixed-integer model construction, auditing, and a text dump format.

The decision variables for a horizon of T quarters and D denominations
are laid out in one flat column vector, in this order:

* ``f[t,d]``  production order (millions of coins), continuous
* ``E[t,d]``  end-of-quarter inventory, continuous
* ``c[t,i]``  blanking extra level i selected in quarter t, binary
* ``h[t]``    annealing extra shift in quarter t, binary
* ``a[t,j]``  striking extra level j selected in quarter t, binary
* ``K``       safety-stock multiplier, continuous in [0, k_max]

Each block runs quarter by quarter, so quarter t of a process owns
``n_levels(process)`` consecutive level columns (annealing's ladder
has the one level ``h``); ``StandardFormProblem.n_levels`` reads that
count off the columns.

The objective is the extra-shift bill: it charges every selected extra
level and puts nothing on ``K``. ``bnb.solve_mip`` minimizes the bill,
then adds K's reward itself and maximizes K at that bill.
``build`` writes the three processes in one loop: a process's capacity
row charges each order its per-coin load from ``model.coin_loads``
(blanking days, alloy tons, or one coin) and lets at most one extra
level, picked by the level-choice row, raise the free base capacity by
that level's own step (its breakpoint minus the one below). Inventory
rows tie stocks to orders and demand; floor, vault, and terminal rows
bound the stocks.
``restrict`` adds first-quarter restrictions to a built model, reading
them off its rows: forcing the base capacity to be fully used appends
that capacity row's order terms as an equality, and forbidding a
process's extra levels zeroes that quarter's level-binary upper bounds.
``StandardFormProblem.injected`` reads the restrictions back off the
rows and bounds, so a model carries no separate list of them.
``level_capacity`` reads what a capacity row allows at a level.
``parse_lp_text`` reads the ``mintplan-lp v3`` text ``export_lp_text``
writes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    PROCESSES,
    MintConfig,
    MintPlanError,
    Scenario,
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


@dataclass(frozen=True, slots=True)
class VariableIndex:
    """Position and meaning of one column.

    ``kind`` is one of f, E, c, h, a, K; ``quarter`` and ``index`` hold
    the subscripts that apply to that kind (denomination for f/E, level
    for c/a, nothing for K).
    """

    kind: str
    column: int
    quarter: int | None = None
    index: int | None = None

    @property
    def name(self) -> str:
        if self.kind == "K":
            return "K"
        if self.kind == "h":
            return f"h[{self.quarter}]"
        return f"{self.kind}[{self.quarter},{self.index}]"


_NAME_RE = re.compile(r"^(?:([fEca])\[(\d+),(\d+)\]|h\[(\d+)\]|K)$")


def _variable_from_name(name: str, column: int) -> VariableIndex:
    m = _NAME_RE.match(name)
    if m is None:
        raise LpFormatError(f"unknown variable name {name!r}")
    if name == "K":
        return VariableIndex(kind="K", column=column)
    if m.group(4) is not None:
        return VariableIndex(kind="h", column=column, quarter=int(m.group(4)))
    return VariableIndex(kind=m.group(1), column=column, quarter=int(m.group(2)), index=int(m.group(3)))


@lru_cache(maxsize=8192)
def _canonical(value):
    """The first-seen copy of an immutable value that recurs unchanged in
    every model ``build`` makes of one shape (row labels, all-unit
    coefficient tuples), so that those models share one copy. That only
    matters to a caller keeping many models alive, as ``perfbench/run.py``
    keeps every pass's outputs."""
    return value


@dataclass(frozen=True, slots=True)
class Row:
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

    ``objective`` is the extra-shift bill: the level binaries' costs,
    and 0.0 on ``K``, whose reward ``bnb.solve_mip`` adds itself.
    ``injected`` reads the model's restrictions off its rows and bounds.
    The problem is the whole model: solving it needs no scenario or
    config, so a parsed dump solves as the built model does. Every
    column's bounds must be finite (ValueError otherwise), so every LP
    over the model is boxed; a lower bound above its upper is allowed
    and makes the model infeasible.
    """

    columns: tuple[VariableIndex, ...]
    objective: tuple[float, ...]
    rows: tuple[Row, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    binaries: tuple[int, ...]

    def __post_init__(self):
        n = len(self.columns)
        if not (len(self.objective) == len(self.lower) == len(self.upper) == n):
            raise ValueError("objective and bounds must cover every column")
        if not (all(map(math.isfinite, self.lower)) and all(map(math.isfinite, self.upper))):
            raise ValueError("every column's bounds must be finite")

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
        zeroed: dict[tuple[str, int], bool] = {}  # (kind, quarter) -> whole ladder at upper bound 0
        for col in sorted(self.binaries):
            key = (self.columns[col].kind, self.columns[col].quarter)
            zeroed[key] = zeroed.get(key, True) and self.upper[col] == 0.0
        for (kind, quarter), off in zeroed.items():
            if off:
                found.append(InjectedConstraint(kind=f"forbid_extra_{_PROCESS_BY_KIND[kind]}", quarter=quarter))
        return tuple(found)

    @cached_property
    def _column_by_key(self) -> Mapping:
        return _shared_layout(self.columns)[1]

    def column_index(self, kind: str, quarter: int | None = None, index: int | None = None) -> int:
        try:
            return self._column_by_key[(kind, quarter, index)]
        except KeyError:
            raise KeyError(f"no column {kind!r} quarter={quarter} index={index}") from None

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.columns)

    @cached_property
    def row_by_label(self) -> dict:
        return {row.label: row for row in self.rows}

    @cached_property
    def horizon(self) -> int:
        return 1 + max(v.quarter for v in self.columns if v.kind == "f")

    @cached_property
    def n_denoms(self) -> int:
        return 1 + max(v.index for v in self.columns if v.kind == "f")

    @cached_property
    def _level_counts(self) -> dict:
        counts = dict.fromkeys(PROCESSES, 0)
        for v in self.columns:
            if v.kind in _PROCESS_BY_KIND:
                process = _PROCESS_BY_KIND[v.kind]
                counts[process] = max(counts[process], v.index or 1)
        return counts

    def n_levels(self, process: str) -> int:
        """How many extra levels ``process``'s ladder has (annealing: 1)."""
        return self._level_counts[process]

    @property
    def k_max(self) -> float:
        return self.upper[self.column_index("K")]


@lru_cache(maxsize=64)
def _shared_layout(columns: tuple[VariableIndex, ...]) -> tuple[tuple[VariableIndex, ...], Mapping]:
    """The first-seen copy of a column layout, with its read-only
    (kind, quarter, index) -> column map: every model of one shape has
    the same columns, so they share one copy (see ``_canonical``)."""
    return columns, MappingProxyType({(v.kind, v.quarter, v.index): v.column for v in columns})


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

    columns = [VariableIndex(kind="f", column=f(t, d), quarter=t, index=d) for t in range(T) for d in range(D)]
    columns += [VariableIndex(kind="E", column=e(t, d), quarter=t, index=d) for t in range(T) for d in range(D)]
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
                columns.append(VariableIndex(kind=kind, column=len(columns), quarter=t, index=None if kind == "h" else j))
                objective.append(float(cost))
    col_k = len(columns)
    columns.append(VariableIndex(kind="K", column=col_k))
    objective.append(0.0)

    def terms(pairs: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
        kept = [(col, float(coeff)) for col, coeff in pairs if coeff != 0.0]
        kept.sort(key=lambda p: p[0])
        if all(coeff in (1.0, -1.0) for _, coeff in kept):
            return _canonical(tuple(kept))
        return tuple(kept)

    def row(label: str, coeffs: tuple[tuple[int, float], ...], relation: str, rhs: float) -> Row:
        return Row(label=_canonical(label), coeffs=coeffs, relation=relation, rhs=rhs)

    rows: list[Row] = []
    # the row order sets the simplex's pivot path, which tests/golden/pivot_path.json pins
    for process in ("annealing", "striking", "blanking"):
        for t in range(T):
            b = eff[process][t]
            rows.append(
                row(
                    label=f"{process}_capacity[{t}]",
                    coeffs=terms(
                        [(f(t, d), load[process][d]) for d in range(D)]
                        + [(col, -(b[j] - b[j - 1])) for j, col in enumerate(levels[process][t], 1)]
                    ),
                    relation="<=",
                    rhs=b[0],
                )
            )
        if process != "annealing":  # a one-level ladder needs no choice row
            for t in range(T):
                rows.append(
                    row(
                        label=f"{process}_level_choice[{t}]",
                        coeffs=terms([(col, 1.0) for col in levels[process][t]]),
                        relation="<=",
                        rhs=1.0,
                    )
                )
    for t in range(T):
        for d in range(D):
            if t == 0:
                coeffs = terms([(e(0, d), 1.0), (f(0, d), -1.0)])
                rhs = float(s.initial_inventory[d] - s.demand[0, d])
            else:
                coeffs = terms([(e(t, d), 1.0), (e(t - 1, d), -1.0), (f(t, d), -1.0)])
                rhs = float(-s.demand[t, d])
            rows.append(row(label=f"inventory_balance[{t},{d}]", coeffs=coeffs, relation="=", rhs=rhs))
    for d in range(D):
        rows.append(
            row(
                label=f"terminal_stock[{d}]",
                coeffs=terms([(e(T - 1, d), 1.0), (col_k, -float(s.safety_min[d]))]),
                relation=">=",
                rhs=0.0,
            )
        )
    for t in range(T):
        rows.append(
            row(
                label=f"vault_capacity[{t}]",
                coeffs=terms([(e(t, d), 1.0) for d in range(D)]),
                relation="<=",
                rhs=float(s.vault_cap),
            )
        )
    for t in range(T):
        for d in range(D):
            rows.append(
                row(
                    label=f"operating_floor[{t},{d}]",
                    coeffs=terms([(e(t, d), 1.0)]),
                    relation=">=",
                    rhs=float(s.operating_floor[t, d]),
                )
            )

    binaries = tuple(range(2 * T * D, col_k))
    upper = [float(eff["striking"][t][-1]) for t in range(T) for _ in range(D)]  # orders: the top striking level
    upper += [float(s.vault_cap)] * (T * D) + [1.0] * len(binaries) + [float(k_max)]

    return StandardFormProblem(
        columns=_shared_layout(tuple(columns))[0],
        objective=tuple(objective),
        rows=tuple(rows),
        lower=(0.0,) * len(columns),
        upper=tuple(upper),
        binaries=binaries,
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
            orders = tuple((col, coeff) for col, coeff in capacity.coeffs if problem.columns[col].kind == "f")
            rows.append(Row(label=inj.label, coeffs=orders, relation="=", rhs=capacity.rhs))
        else:
            for level in range(1, problem.n_levels(inj.process) + 1):
                upper[_level_column(problem, inj.process, q, level)] = 0.0
    return replace(problem, rows=tuple(rows), upper=tuple(upper))


def level_capacity(problem: StandardFormProblem, process: str, quarter: int, level: int) -> float:
    """The usage ceiling the model's capacity row gives ``process`` in
    ``quarter`` when extra level ``level`` is switched on (0: none): the
    row's right-hand side minus that level binary's coefficient."""
    row = problem.row_by_label[f"{process}_capacity[{quarter}]"]
    if level == 0:
        return row.rhs
    return row.rhs - dict(row.coeffs).get(_level_column(problem, process, quarter, level), 0.0)


def _level_column(problem: StandardFormProblem, process: str, quarter: int, level: int) -> int:
    """The column of ``process``'s extra level ``level`` in ``quarter``."""
    kind = _BINARY_KIND_BY_PROCESS[process]
    return problem.column_index(kind, quarter, None if kind == "h" else level)


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
    for v in problem.columns:
        col = v.column
        if x[col] < problem.lower[col] - tol or x[col] > problem.upper[col] + tol:
            out.append(f"bound[{v.name}]")
    for col in problem.binaries:
        if min(abs(x[col]), abs(x[col] - 1.0)) > tol:
            out.append(f"binary[{problem.columns[col].name}]")
    return out


# ---------------------------------------------------------------------------
# solution <-> assignment
# ---------------------------------------------------------------------------


def assignment_from_solution(problem: StandardFormProblem, solution: Solution) -> np.ndarray:
    """Rebuild a full column assignment from a solution.

    Orders, stocks, K, and each ladder's level binaries come straight
    from the solution; a level the model's ladder lacks raises
    ValueError.
    """
    if solution.status != "optimal":
        raise ValueError("only optimal solutions can be turned into assignments")
    T, D = problem.horizon, problem.n_denoms
    x = np.zeros(len(problem.columns))
    for t in range(T):
        for d in range(D):
            x[problem.column_index("f", t, d)] = solution.plan.orders[t, d]
            x[problem.column_index("E", t, d)] = solution.plan.inventory[t, d]
    x[problem.column_index("K")] = solution.k

    for process in PROCESSES:
        for t, level in enumerate(solution.shifts.levels(process)):
            if level > problem.n_levels(process):
                raise ValueError(f"{process} level {level} exceeds the model's ladder ({problem.n_levels(process)} levels)")
            if level:
                x[_level_column(problem, process, t, level)] = 1.0
    return x


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def _terms_text(problem: StandardFormProblem, pairs: Iterable[tuple[int, float]]) -> str:
    parts = [f"{coeff!r} {problem.columns[col].name}" for col, coeff in pairs]
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
    for v in problem.columns:
        lines.append(f"  {problem.lower[v.column]!r} <= {v.name} <= {problem.upper[v.column]!r}")
    lines.append("binary")
    for col in problem.binaries:
        lines.append(f"  {problem.columns[col].name}")
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
    pairs = []
    for part in text.split(" + "):
        tokens = part.split()
        if len(tokens) != 2:
            raise LpFormatError(f"malformed term {part!r}")
        coeff = _lp_number(tokens[0], f"coefficient in term {part!r}")
        if tokens[1] not in column_of:
            raise LpFormatError(f"term references unknown column {tokens[1]!r}")
        pairs.append((column_of[tokens[1]], coeff))
    pairs.sort(key=lambda p: p[0])
    return tuple(pairs)


def parse_lp_text(text: str) -> StandardFormProblem:
    """Inverse of ``export_lp_text``: the document must start with the
    ``mintplan-lp v3`` header.

    The objective must price shift levels and nothing else, the
    ``binary`` section must list every shift-level column once and
    nothing else, and no two rows may share a label; any other document
    raises ``LpFormatError``. The parsed model's ``injected`` is read
    off its rows and bounds, as the exported model's is, so the round
    trip gives back an equal problem."""
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
    columns: list[VariableIndex] = []
    lower: list[float] = []
    upper: list[float] = []
    column_of: dict[str, int] = {}
    for ln in sections["bounds"]:
        m = bound_re.match(ln)
        if m is None:
            raise LpFormatError(f"malformed bounds line {ln!r}")
        name = m.group(2)
        if name in column_of:
            raise LpFormatError(f"duplicate column {name!r} in bounds")
        col = len(columns)
        columns.append(_variable_from_name(name, col))
        column_of[name] = col
        lower.append(_lp_number(m.group(1), f"bound value in {ln!r}"))
        upper.append(_lp_number(m.group(3), f"bound value in {ln!r}"))

    if len(sections["minimize"]) != 1:
        raise LpFormatError("minimize section must hold exactly one line")
    objective = [0.0] * len(columns)
    for col, coeff in _parse_terms(sections["minimize"][0], column_of):
        if columns[col].kind not in _PROCESS_BY_KIND:
            raise LpFormatError(f"the objective prices shift levels only, not {columns[col].name!r}")
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

    binaries: set[int] = set()
    for ln in sections["binary"]:
        if ln not in column_of:
            raise LpFormatError(f"binary section references unknown column {ln!r}")
        if column_of[ln] in binaries:
            raise LpFormatError(f"binary section lists {ln!r} twice")
        if columns[column_of[ln]].kind not in _PROCESS_BY_KIND:
            raise LpFormatError(f"binary section lists {ln!r}, which is no shift level")
        binaries.add(column_of[ln])
    for var in columns:
        if var.kind in _PROCESS_BY_KIND and var.column not in binaries:
            raise LpFormatError(f"binary section leaves out the shift level {var.name!r}")

    return StandardFormProblem(
        columns=tuple(columns),
        objective=tuple(objective),
        rows=tuple(rows),
        lower=tuple(lower),
        upper=tuple(upper),
        binaries=tuple(sorted(binaries)),
    )

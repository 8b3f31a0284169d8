"""Mixed-integer model construction, auditing, and a text dump format.

The decision variables for a horizon of T quarters and D denominations
are laid out in one flat column vector:

* ``f[t,d]``  production order (millions of coins), continuous
* ``E[t,d]``  end-of-quarter inventory, continuous
* ``c[t,i]``  blanking extra level i selected in quarter t, binary
* ``h[t]``    annealing extra shift in quarter t, binary
* ``a[t,j]``  striking extra level j selected in quarter t, binary
* ``K``       safety-stock multiplier, continuous in [0, k_max]

The objective charges every selected extra level and rewards ``K``.
Capacity rows let at most one extra level per process and quarter raise
the free base capacity by that level's increment; inventory rows tie
stocks to orders and demand; floor, vault, and terminal rows bound the
stocks. First-quarter restrictions (force the base capacity to be fully
used, or forbid extra levels) can be injected as extra rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    MintConfig,
    MintPlanError,
    MintingPlan,
    Scenario,
    ShiftSelection,
    Solution,
    scaled_breakpoints,
    validate_scenario,
)

#: Row-label families produced by ``build``, in emission order.
ROW_FAMILIES = (
    "annealing_capacity",
    "striking_capacity",
    "striking_level_choice",
    "blanking_capacity",
    "blanking_level_choice",
    "inventory_balance",
    "terminal_stock",
    "vault_capacity",
    "operating_floor",
)

#: Families added only through injection.
INJECTED_FAMILIES = (
    "force_base_striking",
    "force_base_blanking",
    "forbid_extra_striking",
    "forbid_extra_blanking",
    "forbid_extra_annealing",
)

LP_HEADER = "mintplan-lp v1"

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


@dataclass(frozen=True)
class StandardFormProblem:
    """A fully built model: columns, objective, rows, and bounds.

    ``mode`` records how the two objective parts are ordered when the
    instance cannot settle it in one pass: ``combined`` minimizes
    ``cost - K`` directly, ``lexicographic`` minimizes cost first and
    then maximizes K with the cost pinned. ``scenario`` and ``config``
    keep the building context for solution extraction; they are carried
    for convenience and excluded from equality.
    """

    columns: tuple[VariableIndex, ...]
    objective: tuple[float, ...]
    rows: tuple[Row, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    binaries: tuple[int, ...]
    mode: str = "combined"
    injected: tuple[InjectedConstraint, ...] = ()
    scenario: Scenario | None = field(default=None, compare=False, repr=False)
    config: MintConfig | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.columns)
        if not (len(self.objective) == len(self.lower) == len(self.upper) == n):
            raise ValueError("objective and bounds must cover every column")
        if self.mode not in ("combined", "lexicographic"):
            raise ValueError(f"unknown mode {self.mode!r}")

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
    def n_blanking_levels(self) -> int:
        return max((v.index for v in self.columns if v.kind == "c"), default=0)

    @cached_property
    def n_striking_levels(self) -> int:
        return max((v.index for v in self.columns if v.kind == "a"), default=0)

    @property
    def k_max(self) -> float:
        return self.upper[self.column_index("K")]


@lru_cache(maxsize=64)
def _shared_layout(columns: tuple[VariableIndex, ...]) -> tuple[tuple[VariableIndex, ...], Mapping]:
    """The first-seen copy of a column layout, with its read-only
    (kind, quarter, index) -> column map: every model of one shape has
    the same columns, so they share one copy (see ``_canonical``)."""
    return columns, MappingProxyType({(v.kind, v.quarter, v.index): v.column for v in columns})


@lru_cache(maxsize=64)
def _cost_gap(config: MintConfig, horizon: int, cap: int = 200_000) -> float | None:
    """Smallest positive gap between achievable total extra-shift costs,
    or None when the enumeration would exceed ``cap`` values.

    The gap depends on nothing but the config's step costs and the
    horizon, and enumerating it is about half the cost of ``build``; a
    rolling simulation rebuilds its model every epoch over a handful of
    (config, horizon) pairs, so the result is cached per pair."""
    blanking = {0.0} | set(config.blanking_costs)
    annealing = {0.0, config.annealing_cost}
    striking = {0.0} | set(config.striking_costs)
    per_quarter = sorted({b + a + s for b in blanking for a in annealing for s in striking})
    totals = {0.0}
    for _ in range(horizon):
        totals = {round(base + extra, 9) for base in totals for extra in per_quarter}
        if len(totals) > cap:
            return None
    values = sorted(totals)
    gaps = [hi - lo for lo, hi in zip(values, values[1:]) if hi - lo > 1e-12]
    return min(gaps) if gaps else math.inf


def choose_mode(config: MintConfig, horizon: int, k_max: float) -> str:
    """Pick ``combined`` only when no K value can flip a cost decision:
    the smallest achievable cost gap must exceed ``k_max``. An
    enumeration overflow falls back to the safe two-pass mode."""
    gap = _cost_gap(config, horizon)
    if gap is not None and gap > k_max:
        return "combined"
    return "lexicographic"


def build(
    scenario: Scenario,
    config: MintConfig,
    injected: Sequence[InjectedConstraint] = (),
    *,
    k_max: float = DEFAULT_K_MAX,
) -> StandardFormProblem:
    """Assemble the full model for one scenario.

    The scenario must be clean per ``validate_scenario``; injected
    restrictions are appended after the core rows in their given order.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ValueError("cannot build from an invalid scenario: " + "; ".join(violations))
    if not math.isfinite(k_max) or k_max < 0:
        raise ValueError(f"k_max must be finite and >= 0, got {k_max}")

    s, cfg = scenario, config
    T, D = s.horizon, s.n_denoms
    nc, na = cfg.n_blanking_levels, cfg.n_striking_levels
    rates = np.array([spec.blanking_rate for spec in s.coin_specs])
    weights = np.array([spec.alloy_weight for spec in s.coin_specs])

    off_f = 0
    off_e = T * D
    off_c = 2 * T * D
    off_h = off_c + T * nc
    off_a = off_h + T
    col_k = off_a + T * na
    n_cols = col_k + 1

    def f(t: int, d: int) -> int:
        return off_f + t * D + d

    def e(t: int, d: int) -> int:
        return off_e + t * D + d

    def c(t: int, i: int) -> int:
        return off_c + t * nc + (i - 1)

    def h(t: int) -> int:
        return off_h + t

    def a(t: int, j: int) -> int:
        return off_a + t * na + (j - 1)

    columns: list[VariableIndex] = []
    for kind, off in (("f", off_f), ("E", off_e)):
        for t in range(T):
            for d in range(D):
                columns.append(VariableIndex(kind=kind, column=off + t * D + d, quarter=t, index=d))
    for t in range(T):
        for i in range(1, nc + 1):
            columns.append(VariableIndex(kind="c", column=c(t, i), quarter=t, index=i))
    for t in range(T):
        columns.append(VariableIndex(kind="h", column=h(t), quarter=t))
    for t in range(T):
        for j in range(1, na + 1):
            columns.append(VariableIndex(kind="a", column=a(t, j), quarter=t, index=j))
    columns.append(VariableIndex(kind="K", column=col_k))
    columns.sort(key=lambda v: v.column)

    # lists rather than arrays, so the tuples stored below share a few
    # float objects instead of holding a fresh float per column
    objective = [0.0] * n_cols
    for t in range(T):
        for i in range(1, nc + 1):
            objective[c(t, i)] = float(cfg.blanking_costs[i - 1])
        objective[h(t)] = float(cfg.annealing_cost)
        for j in range(1, na + 1):
            objective[a(t, j)] = float(cfg.striking_costs[j - 1])
    objective[col_k] = -1.0

    eff = {
        process: [scaled_breakpoints(cfg, s.disruptions, t, process) for t in range(T)]
        for process in ("blanking", "annealing", "striking")
    }

    def terms(pairs: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
        kept = [(col, float(coeff)) for col, coeff in pairs if coeff != 0.0]
        kept.sort(key=lambda p: p[0])
        if all(coeff in (1.0, -1.0) for _, coeff in kept):
            return _canonical(tuple(kept))
        return tuple(kept)

    def row(label: str, coeffs: tuple[tuple[int, float], ...], relation: str, rhs: float) -> Row:
        return Row(label=_canonical(label), coeffs=coeffs, relation=relation, rhs=rhs)

    rows: list[Row] = []
    for t in range(T):
        yb = eff["annealing"][t]
        rows.append(
            row(
                label=f"annealing_capacity[{t}]",
                coeffs=terms([(f(t, d), weights[d]) for d in range(D)] + [(h(t), -(yb[1] - yb[0]))]),
                relation="<=",
                rhs=yb[0],
            )
        )
    for t in range(T):
        zb = eff["striking"][t]
        rows.append(
            row(
                label=f"striking_capacity[{t}]",
                coeffs=terms(
                    [(f(t, d), 1.0) for d in range(D)]
                    + [(a(t, j), -(zb[j] - zb[j - 1])) for j in range(1, na + 1)]
                ),
                relation="<=",
                rhs=zb[0],
            )
        )
    for t in range(T):
        rows.append(
            row(
                label=f"striking_level_choice[{t}]",
                coeffs=terms([(a(t, j), 1.0) for j in range(1, na + 1)]),
                relation="<=",
                rhs=1.0,
            )
        )
    for t in range(T):
        xb = eff["blanking"][t]
        rows.append(
            row(
                label=f"blanking_capacity[{t}]",
                coeffs=terms(
                    [(f(t, d), rates[d]) for d in range(D)]
                    + [(c(t, i), -(xb[i] - xb[i - 1])) for i in range(1, nc + 1)]
                ),
                relation="<=",
                rhs=xb[0],
            )
        )
    for t in range(T):
        rows.append(
            row(
                label=f"blanking_level_choice[{t}]",
                coeffs=terms([(c(t, i), 1.0) for i in range(1, nc + 1)]),
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

    injected = tuple(injected)
    for inj in injected:
        q = inj.quarter
        if not 0 <= q < T:
            raise ValueError(f"injected constraint quarter {q} outside horizon {T}")
        if inj.kind == "force_base_striking":
            rows.append(
                row(
                    label=inj.label,
                    coeffs=terms([(f(q, d), 1.0) for d in range(D)]),
                    relation="=",
                    rhs=eff["striking"][q][0],
                )
            )
        elif inj.kind == "force_base_blanking":
            rows.append(
                row(
                    label=inj.label,
                    coeffs=terms([(f(q, d), rates[d]) for d in range(D)]),
                    relation="=",
                    rhs=eff["blanking"][q][0],
                )
            )
        elif inj.kind == "forbid_extra_striking":
            rows.append(
                row(
                    label=inj.label,
                    coeffs=terms([(a(q, j), 1.0) for j in range(1, na + 1)]),
                    relation="=",
                    rhs=0.0,
                )
            )
        elif inj.kind == "forbid_extra_blanking":
            rows.append(
                row(
                    label=inj.label,
                    coeffs=terms([(c(q, i), 1.0) for i in range(1, nc + 1)]),
                    relation="=",
                    rhs=0.0,
                )
            )
        else:  # forbid_extra_annealing
            rows.append(row(label=inj.label, coeffs=terms([(h(q), 1.0)]), relation="=", rhs=0.0))

    upper = [0.0] * n_cols
    vault_cap = float(s.vault_cap)
    for t in range(T):
        f_cap = float(eff["striking"][t][-1])
        for d in range(D):
            upper[f(t, d)] = f_cap
            upper[e(t, d)] = vault_cap
    binaries = []
    for t in range(T):
        for i in range(1, nc + 1):
            binaries.append(c(t, i))
        binaries.append(h(t))
        for j in range(1, na + 1):
            binaries.append(a(t, j))
    for col in binaries:
        upper[col] = 1.0
    upper[col_k] = float(k_max)

    return StandardFormProblem(
        columns=_shared_layout(tuple(columns))[0],
        objective=tuple(objective),
        rows=tuple(rows),
        lower=(0.0,) * n_cols,
        upper=tuple(upper),
        binaries=tuple(sorted(binaries)),
        mode=choose_mode(cfg, T, k_max),
        injected=injected,
        scenario=scenario,
        config=config,
    )


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


def objective_value(problem: StandardFormProblem, assignment: Sequence[float]) -> float:
    x = np.asarray(assignment, dtype=float)
    return float(np.dot(np.asarray(problem.objective), x))


# ---------------------------------------------------------------------------
# solution <-> assignment
# ---------------------------------------------------------------------------

_BINARY_KIND_BY_PROCESS = {"blanking": "c", "annealing": "h", "striking": "a"}
_CAPACITY_ROW_BY_PROCESS = {
    "blanking": "blanking_capacity",
    "annealing": "annealing_capacity",
    "striking": "striking_capacity",
}


def assignment_from_solution(problem: StandardFormProblem, solution: Solution) -> np.ndarray:
    """Rebuild a full column assignment from a solution.

    Orders, stocks, and K come straight from the solution. Binary levels
    start at the solution's (minimal) shift selection and are raised per
    process until the quarter's capacity row holds, since a level's row
    capacity (base plus that level's increment) can cover less than the
    level's own breakpoint.
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

    n_levels = {
        "blanking": problem.n_blanking_levels,
        "annealing": 1,
        "striking": problem.n_striking_levels,
    }
    for process in ("blanking", "annealing", "striking"):
        kind = _BINARY_KIND_BY_PROCESS[process]
        family = _CAPACITY_ROW_BY_PROCESS[process]
        for t in range(T):
            row = problem.row_by_label[f"{family}[{t}]"]
            start = solution.shifts.levels(process)[t]
            chosen = None
            for lvl in range(start, n_levels[process] + 1):
                _set_level(problem, x, kind, t, lvl, n_levels[process])
                if row.value(x) <= row.rhs + CHECK_TOL:
                    chosen = lvl
                    break
            if chosen is None:
                raise MintPlanError(
                    f"no {process} level covers quarter {t} usage in this problem"
                )
    return x


def _set_level(problem: StandardFormProblem, x: np.ndarray, kind: str, quarter: int, level: int, n_levels: int) -> None:
    if kind == "h":
        x[problem.column_index("h", quarter)] = 1.0 if level >= 1 else 0.0
        return
    for idx in range(1, n_levels + 1):
        x[problem.column_index(kind, quarter, idx)] = 1.0 if idx == level else 0.0


# ---------------------------------------------------------------------------
# LP text format
# ---------------------------------------------------------------------------

def _terms_text(problem: StandardFormProblem, pairs: Iterable[tuple[int, float]]) -> str:
    parts = [f"{coeff!r} {problem.columns[col].name}" for col, coeff in pairs]
    return " + ".join(parts) if parts else "0"


def export_lp_text(problem: StandardFormProblem) -> str:
    """Serialize the model to the versioned text form.

    The dump carries everything mathematical (columns, objective, rows,
    bounds, binaries, mode); the building scenario and config are not
    part of the format. Floats use shortest round-tripping repr, so
    ``parse_lp_text`` reproduces the model exactly.
    """
    lines = [LP_HEADER, f"mode {problem.mode}"]
    lines.append("minimize")
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


def _parse_terms(text: str, column_of: dict) -> tuple[tuple[int, float], ...]:
    text = text.strip()
    if text == "0":
        return ()
    pairs = []
    for part in text.split(" + "):
        tokens = part.split()
        if len(tokens) != 2:
            raise LpFormatError(f"malformed term {part!r}")
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise LpFormatError(f"malformed coefficient in term {part!r}") from None
        if tokens[1] not in column_of:
            raise LpFormatError(f"term references unknown column {tokens[1]!r}")
        pairs.append((column_of[tokens[1]], coeff))
    pairs.sort(key=lambda p: p[0])
    return tuple(pairs)


def parse_lp_text(text: str) -> StandardFormProblem:
    """Inverse of ``export_lp_text``. The result has no scenario or
    config context attached."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != LP_HEADER:
        raise LpFormatError(f"missing or unsupported header; expected {LP_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("mode "):
        raise LpFormatError("missing mode line")
    mode = lines[1][len("mode "):]

    sections: dict[str, list[str]] = {"minimize": [], "subject to": [], "bounds": [], "binary": []}
    current: str | None = None
    seen = []
    for ln in lines[2:]:
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
        try:
            lower.append(float(m.group(1)))
            upper.append(float(m.group(3)))
        except ValueError:
            raise LpFormatError(f"malformed bound value in {ln!r}") from None

    if len(sections["minimize"]) != 1:
        raise LpFormatError("minimize section must hold exactly one line")
    objective = [0.0] * len(columns)
    for col, coeff in _parse_terms(sections["minimize"][0], column_of):
        objective[col] = coeff

    row_re = re.compile(r"^([A-Za-z_]+\[[0-9,]+\]): (.*) (<=|=|>=) (\S+)$")
    rows: list[Row] = []
    injected: list[InjectedConstraint] = []
    for ln in sections["subject to"]:
        m = row_re.match(ln)
        if m is None:
            raise LpFormatError(f"malformed constraint line {ln!r}")
        label, body, relation, rhs_text = m.groups()
        try:
            rhs = float(rhs_text)
        except ValueError:
            raise LpFormatError(f"malformed right-hand side in {ln!r}") from None
        rows.append(Row(label=label, coeffs=_parse_terms(body, column_of), relation=relation, rhs=rhs))
        family = label.split("[", 1)[0]
        if family in INJECTED_FAMILIES:
            injected.append(InjectedConstraint(kind=family, quarter=int(label[len(family) + 1:-1])))

    binaries = []
    for ln in sections["binary"]:
        if ln not in column_of:
            raise LpFormatError(f"binary section references unknown column {ln!r}")
        binaries.append(column_of[ln])

    return StandardFormProblem(
        columns=tuple(columns),
        objective=tuple(objective),
        rows=tuple(rows),
        lower=tuple(lower),
        upper=tuple(upper),
        binaries=tuple(sorted(binaries)),
        mode=mode,
        injected=tuple(injected),
    )

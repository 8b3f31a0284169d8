"""Bounded-variable simplex, written against the package's own problem
type: a two-phase primal method for cold solves and a dual method that
reoptimizes from a dual-feasible basis.

A cold solve first screens the bound box: when some row's activity,
over every point between the column bounds, misses its right-hand side
by more than ten times the phase-1 tolerance, the LP is infeasible and
the solve returns what phase 1 would, with no simplex run. Otherwise it
runs the classic two phases. Every row gets a slack or an artificial
starting column so the initial basis is trivially feasible; phase 1
drives the artificials to zero (or proves infeasibility), phase 2
optimizes the real objective. Bland's smallest-index rule picks both
the entering and the leaving variable, which makes the iteration
cycle-free at the price of speed; instances here are small enough that
robustness wins. Every LP is boxed: a structural column moves between
finite bounds, which ``StandardFormProblem`` and ``solve_lp`` enforce,
and only the slacks and artificials are unbounded above. So the LP is
either infeasible or has an optimum, and there is no "unbounded"
status. A step that only sends the entering variable to its opposite
bound is taken as a bound flip without any basis change.

A warm solve (``warm_start=``) takes the basis and basis inverse that a
result of the same problem object carries; any other warm start solves
cold. Three kinds of result carry one: an optimal result, an
infeasibility the dual simplex proved, and ``slack_start``, which is
the starting slack/artificial basis with every artificial boxed at
[0, 0]. The reduced costs do not depend on the bounds, so putting each
nonbasic column at the bound its reduced cost prefers gives a
dual-feasible start (from the slack basis the reduced costs are the
costs themselves, and every structural bound is finite), and a bounded
dual simplex pivots back to primal feasibility: the most
violated basic value leaves, the dual ratio test picks the entering
column, and a row with no entering candidate proves the LP infeasible.
That proof keeps the basis dual feasible, so the next solve restarts
from it. After a dual pivot the primal phase-2 pass confirms
optimality; a start that was already primal feasible skips it, since
with every column at its preferred bound no column can enter. Any
trouble falls back to the cold solve: a start that would put a slack
at its infinite upper side, a singular refactorization, a stall past
the iteration budget, an infeasibility too slim to prove with margin
over the cold phase-1 tolerance, or a final point off its rows.

A warm solve pays for its bounds change and little else. The reduced
costs travel with the basis: a tableau prices them once and keeps them
until a pivot or an inversion changes its basis inverse, and a restart
takes over those of the result it starts from. So do the bound sides
they prefer: a restart source derives each column's side, and the
status that puts it there, once; every restart from it copies them and
hands them on to its own result until a pivot, an inversion or a primal
pass moves a column. The row tolerances, the objective and the
sign-split matrix of the bound-box screen are kept with the assembly,
once per problem, and so are the model's own columns whose lower bound
is past the upper: a bounds override is checked on its own entries
only.

The structural matrix, right-hand sides, slack layout and bounds are
assembled with numpy once per problem object: the last assembly is
kept for the next cold solve of the same object (the nodes of a tree
search), and a warm solve reuses the arrays of the result it starts
from. The basis inverse is kept explicitly and updated by the product
form on each pivot, with a full refactorization (and a fresh
recomputation of the basic values) after every few dozen updates to
keep drift at machine precision; the count of updates travels with the
basis from one warm solve to the next. Each starting column is a signed
unit vector on its own row, so the starting basis is a signed identity
and its inverse is written down, not computed; a refactorization
inverts the basis only when a pivot has changed it since the last
inversion, since the same basis would invert to the same matrix. A
pivot updates only the rows of the inverse whose entry in the entering
column is nonzero: the full update would leave every other row as it
is, but for the sign of its zero entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mip import StandardFormProblem
from .model import MintPlanError

#: Entries smaller than this never serve as pivots.
PIVOT_TOL = 1e-9

#: Row residuals and the phase-1 objective are compared against this.
FEAS_TOL = 1e-7

#: Reduced costs within this of zero are treated as optimal.
DUAL_TOL = 1e-9

#: Basic values within this of their bounds end the dual simplex.
BOUND_TOL = 1e-9

#: Pivots between full refactorizations of the basis inverse.
REFACTOR_EVERY = 64

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

_SENSE = {"<=": 1.0, ">=": -1.0, "=": 0.0}


class IterationCapExceeded(MintPlanError):
    """The simplex hit its iteration budget before terminating."""


@dataclass(frozen=True)
class LpResult:
    """Outcome of one LP solve.

    ``status`` is "optimal" or "infeasible" ("unsolved" for a
    ``slack_start``), and ``objective`` is NaN unless it is optimal;
    ``x`` covers the problem's own columns (no slacks) and is None
    unless the status is optimal. ``basis`` lists the basic columns of
    an optimal result in the solver's internal indexing (structural
    columns first, then one slack per inequality row, then one
    artificial per row). ``iterations`` counts every simplex iteration
    the solve ran, a cold phase 1 included; a cold solve that proves the
    LP infeasible reports 0.

    A result whose basis is dual feasible carries the solver's arrays
    privately (``can_warm_start``): every optimal result, every
    infeasible one the dual simplex proved, and the ``slack_start`` of a
    problem, whose status is "unsolved". Passed as ``warm_start`` to
    another solve of the same problem object, it reoptimizes from that
    basis without assembly or factorization. Infeasible results of a
    cold solve carry nothing.
    """

    status: str
    objective: float
    x: np.ndarray | None = None
    basis: tuple[int, ...] = ()
    iterations: int = 0
    _tableau: "_Tableau | None" = field(default=None, repr=False, compare=False)

    @property
    def can_warm_start(self) -> bool:
        """Whether passing this result as ``warm_start`` to a solve of its
        own problem object reoptimizes from its basis."""
        return self._tableau is not None


class _Assembly:
    """The problem as arrays: everything a solve needs that does not
    depend on a bounds override."""

    def __init__(self, problem: StandardFormProblem):
        rows = problem.rows
        m, n = len(rows), len(problem.columns)
        self.problem = problem
        self.lower = np.array(problem.lower, dtype=float)
        self.upper = np.array(problem.upper, dtype=float)
        self.A = np.zeros((m, n))
        counts = [len(row.coeffs) for row in rows]
        if sum(counts):
            entries = np.array([entry for row in rows for entry in row.coeffs])
            self.A[np.repeat(np.arange(m), counts), entries[:, 0].astype(np.int64)] = entries[:, 1]
        self.b = np.array([row.rhs for row in rows], dtype=float)
        self.sense = np.array([_SENSE[row.relation] for row in rows])
        self.slack_rows = np.flatnonzero(self.sense)
        self.n_total = n + len(self.slack_rows) + m
        self.cost = np.zeros(self.n_total)
        self.cost[:n] = problem.objective
        self.objective = self.cost[:n]
        scale = np.maximum(1.0, np.abs(self.b))
        self.row_tol = FEAS_TOL * scale  # what a final point may miss a row by
        self.box_margin = 10.0 * FEAS_TOL * scale  # what the bound-box screen needs
        self.equality = self.sense == 0.0
        self.A_pos = np.where(self.A > 0.0, self.A, 0.0)
        self.A_neg = np.where(self.A < 0.0, self.A, 0.0)
        # the tableau's matrix but for the artificial columns, whose signs
        # depend on the bounds
        self.A_start = np.zeros((m, self.n_total))
        self.A_start[:, :n] = self.A
        self.A_start[self.slack_rows, n + np.arange(len(self.slack_rows))] = self.sense[self.slack_rows]
        # the model's own columns whose bounds cross, checked once
        self.columns = range(n)
        self.crossed = frozenset(np.flatnonzero(self.lower > self.upper + 1e-12).tolist())

    def bounds(self, bounds_override: dict | None) -> tuple[np.ndarray, np.ndarray, bool]:
        """The structural bounds under ``bounds_override``, not to be
        written to, and whether a lower bound exceeds its upper by more
        than 1e-12. A non-finite override entry raises MintPlanError.
        Only the overridden columns are checked here; the model's own
        were checked at assembly."""
        if not bounds_override:
            return self.lower, self.upper, bool(self.crossed)
        lower, upper = self.lower.copy(), self.upper.copy()
        crossed = set(self.crossed)
        for col, (lo, hi) in bounds_override.items():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise MintPlanError(f"bounds override ({lo}, {hi}) of column {col} is not finite")
            lower[col] = lo
            upper[col] = hi
            col = self.columns[col]  # a negative index names the column it wrote to
            if lo > hi + 1e-12:
                crossed.add(col)
            else:
                crossed.discard(col)
        return lower, upper, bool(crossed)

    def box_misses_a_row(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Whether some row cannot be met anywhere in the bound box: its
        activity range over the box misses the right-hand side by more
        than ``10 * FEAS_TOL * max(1, |rhs|)``, well past what cold phase 1
        tolerates."""
        least = self.A_pos @ lower + self.A_neg @ upper
        most = self.A_pos @ upper + self.A_neg @ lower
        too_low = (self.sense <= 0.0) & (most < self.b - self.box_margin)  # ">=" and "=" rows
        too_high = (self.sense >= 0.0) & (least > self.b + self.box_margin)  # "<=" and "=" rows
        return bool(np.any(too_low | too_high))

    def worst_violation(self, x: np.ndarray) -> tuple[int, float] | None:
        """The row that ``x`` violates most among those it violates
        beyond tolerance (the lowest such row on a tie), with the amount,
        or None."""
        gap = self.A @ x - self.b
        violation = np.where(self.equality, np.abs(gap), np.maximum(0.0, self.sense * gap))
        bad = np.flatnonzero(violation > self.row_tol)
        if bad.size == 0:
            return None
        worst = int(bad[np.argmax(violation[bad])])
        return worst, float(violation[worst])


class _Tableau:
    """Mutable solver state over the internal (structural+slack+artificial)
    column space."""

    def __init__(self, asm: _Assembly, lower: np.ndarray, upper: np.ndarray):
        m, n = asm.A.shape
        n_slack = len(asm.slack_rows)
        ntot = asm.n_total
        self.asm = asm
        self.n_struct = n
        A = asm.A_start.copy()
        b = asm.b

        self.l = np.concatenate([lower, np.zeros(n_slack), np.zeros(m)])
        self.u = np.concatenate([upper, np.full(n_slack, np.inf), np.full(m, np.inf)])
        self.x = np.zeros(ntot)
        self.x[:n] = lower
        self.status = np.full(ntot, _AT_LOWER, dtype=np.int8)

        # residuals with every structural column at its starting bound
        residual = b - A[:, :n] @ self.x[:n]
        self.art_cols = np.arange(n + n_slack, ntot)
        slack_cols = np.arange(n, n + n_slack)
        sval = residual[asm.slack_rows] / asm.sense[asm.slack_rows]
        use = sval >= 0.0
        slack_rows, slack_cols, sval = asm.slack_rows[use], slack_cols[use], sval[use]
        art_rows = np.ones(m, dtype=bool)
        art_rows[slack_rows] = False
        art_rows = np.flatnonzero(art_rows)
        art_cols = self.art_cols[art_rows]

        basis = np.empty(m, dtype=np.int64)
        basis[slack_rows] = slack_cols
        self.x[slack_cols] = sval
        # the paired artificials are never needed: pin them at zero
        self.u[self.art_cols[slack_rows]] = 0.0
        A[art_rows, art_cols] = np.where(residual[art_rows] >= 0.0, 1.0, -1.0)
        basis[art_rows] = art_cols
        self.x[art_cols] = np.abs(residual[art_rows])
        self.status[basis] = _BASIC

        self.A = A
        self.b = b
        self.basis = basis
        self.need_phase1 = bool(art_rows.size)
        self.iterations = 0
        # every starting column is a signed unit vector on its own row, so
        # the starting basis is a signed identity and is its own inverse
        self.B_inv = np.diag(A[np.arange(m), basis])
        self._pivots = 0  # product-form updates of B_inv since its factorization
        self._reduced = None  # phase-2 reduced costs at this basis and B_inv, once priced
        self._sides = None  # what restarts from this tableau start from, once derived
        self._recompute_basics()

    def reduced_costs(self) -> np.ndarray:
        """The phase-2 reduced costs ``c - (c_B B_inv) A`` at the current
        basis and inverse, computed on first use and kept until a pivot
        or an inversion changes ``B_inv``. Callers must not write to it."""
        if self._reduced is None:
            c = self.asm.cost
            self._reduced = c - (c[self.basis] @ self.B_inv) @ self.A
        return self._reduced

    def restart_sides(self) -> tuple[np.ndarray, ...]:
        """What a restart from this tableau starts from, as ``(reduced,
        at_upper, status)``: the phase-2 reduced costs, the bound side each
        column's reduced cost prefers (``at_upper``; a tie keeps its side),
        and the status that puts every nonbasic column there. Derived on
        first use and kept until a pivot, an inversion or a primal pass
        moves a column; callers must not write to it."""
        if self._sides is None:
            reduced = self.reduced_costs()
            at_upper = np.where(np.abs(reduced) <= DUAL_TOL, self.status == _AT_UPPER, reduced < 0.0)
            status = np.where(at_upper, _AT_UPPER, _AT_LOWER).astype(np.int8)
            status[self.basis] = _BASIC
            self._sides = (reduced, at_upper, status)
        return self._sides

    def restarted(self, lower: np.ndarray, upper: np.ndarray) -> _Tableau | None:
        """A copy at this tableau's basis under new structural bounds,
        with every nonbasic column at the bound its phase-2 reduced cost
        prefers (ties keep their side, so no column is eligible to enter
        at the start). None when a preferred bound is infinite, which only
        a slack's upper side can be, so the start is not dual feasible.
        The copy shares the problem's arrays and takes over this tableau's
        reduced costs and sides, which do not depend on the bounds."""
        n = self.n_struct
        sides = reduced, at_upper, status = self.restart_sides()
        new = _Tableau.__new__(_Tableau)
        new.asm, new.n_struct, new.A, new.b, new.art_cols = self.asm, n, self.A, self.b, self.art_cols
        new.need_phase1, new.iterations = False, 0
        new.l = np.concatenate((lower, self.l[n:]))
        new.u = np.concatenate((upper, self.u[n:]))
        new.basis, new.B_inv = self.basis.copy(), self.B_inv.copy()
        new._pivots, new._reduced, new._sides, new.status = self._pivots, reduced, sides, status.copy()
        new.x = np.where(at_upper, new.u, new.l)
        new.x[new.basis] = 0.0
        if not np.isfinite(new.x).all():
            return None
        new.x[new.basis] = new.B_inv @ (new.b - new.A @ new.x)
        return new

    def _refactor(self) -> None:
        """Recompute the basic values, after inverting the basis afresh
        if a pivot changed it since the last inversion (an unchanged
        basis would invert to the very same matrix)."""
        if self._pivots:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
            self._pivots = 0
            self._reduced = self._sides = None
        self._recompute_basics()

    def _recompute_basics(self) -> None:
        tmp = self.x.copy()
        tmp[self.basis] = 0.0
        rhs = self.b - self.A @ tmp
        self.x[self.basis] = self.B_inv @ rhs

    def _pivot(self, pos: int, dq: np.ndarray) -> None:
        pivot_row = self.B_inv[pos] / dq[pos]
        rows = dq.nonzero()[0]  # a row with a zero entry stays as it is
        self.B_inv[rows] -= dq[rows, None] * pivot_row
        self.B_inv[pos] = pivot_row
        self._pivots += 1
        self._reduced = self._sides = None

    def iterate(self, c: np.ndarray, cap: int) -> None:
        """Run simplex on objective ``c`` until optimal. An entering
        column that nothing blocks raises MintPlanError: over boxed
        structural columns no objective decreases without bound.

        The basic values, bounds and costs live in arrays ordered like
        the basis for the length of the loop; ``self.x`` gets the basic
        values back before every return, and refactorizations recompute
        them from the nonbasic ones."""
        self._sides = None  # a bound flip moves a column without a pivot
        basis, l, u, A, x, status = self.basis, self.l, self.u, self.A, self.x, self.status
        movable = (u - l) > PIVOT_TOL
        # +1 at the lower bound, -1 at the upper, 0 when basic or fixed: a
        # column may enter when side * reduced cost < -DUAL_TOL
        side = np.where(status == _AT_LOWER, 1.0, -1.0)
        side[~movable | (status == _BASIC)] = 0.0
        xB, lB, uB, cB = x[basis], l[basis], u[basis], c[basis]
        ratios = np.empty(len(basis))
        for _ in range(cap):
            self.iterations += 1
            reduced = c - (cB @ self.B_inv) @ A
            eligible = side * reduced < -DUAL_TOL
            q = int(eligible.argmax())  # Bland: smallest eligible index
            if not eligible[q]:
                self.iterations -= 1  # this pass only confirmed optimality
                self._refactor()
                return
            direction = float(side[q])
            dq = self.B_inv @ A[:, q]
            eta = -direction * dq  # basic values move by t * eta

            # distance to the bound each basic value moves toward, over
            # its speed; rows it does not move never block
            speed = np.abs(eta)
            ratios.fill(math.inf)
            np.divide(np.where(eta < 0.0, xB - lB, uB - xB), speed, out=ratios, where=speed > PIVOT_TOL)
            min_ratio = float(ratios.min()) if ratios.size else math.inf
            t_flip = u[q] - l[q]

            if t_flip <= min_ratio:
                if not math.isfinite(t_flip):
                    raise MintPlanError("the simplex found an unblocked ray over boxed columns")
                xB += t_flip * eta
                x[q] = u[q] if direction > 0 else l[q]
                status[q] = _AT_UPPER if direction > 0 else _AT_LOWER
                side[q] = -direction
                continue

            blocking = (ratios <= min_ratio + 1e-12).nonzero()[0]
            leave_pos = int(blocking[basis[blocking].argmin()])  # Bland again
            out_col = int(basis[leave_pos])
            hits_lower = eta[leave_pos] < 0.0

            xB += min_ratio * eta
            xB[leave_pos] = l[q] + min_ratio if direction > 0 else u[q] - min_ratio
            lB[leave_pos], uB[leave_pos], cB[leave_pos] = l[q], u[q], c[q]
            x[out_col] = l[out_col] if hits_lower else u[out_col]
            status[out_col] = _AT_LOWER if hits_lower else _AT_UPPER
            status[q] = _BASIC
            side[out_col] = (1.0 if hits_lower else -1.0) if movable[out_col] else 0.0
            side[q] = 0.0
            basis[leave_pos] = q

            self._pivot(leave_pos, dq)
            if self._pivots >= REFACTOR_EVERY:
                self._refactor()
                xB = x[basis]
        x[basis] = xB
        raise IterationCapExceeded(f"simplex exceeded {cap} iterations")

    def dual_iterate(self, cap: int) -> str:
        """Run the bounded dual simplex from a dual-feasible basis until
        every basic value is within its bounds ("feasible"), a row proves
        the LP infeasible ("infeasible"), or a row has no entering
        column but no proof either ("stalled")."""
        movable = None
        for _ in range(cap):
            xB = self.x[self.basis]
            below = self.l[self.basis] - xB
            above = xB - self.u[self.basis]
            violation = np.maximum(below, above)
            if not violation.size or violation.max() <= BOUND_TOL:
                return "feasible"
            if movable is None:
                movable = (self.u - self.l) > PIVOT_TOL
            self.iterations += 1
            r = int(np.argmax(violation))  # most violated row leaves
            rising = below[r] > 0.0
            alpha = self.B_inv[r] @ self.A
            # signed < 0: raising that column moves x_r toward its violated
            # bound; signed > 0: lowering it does
            signed = alpha if rising else -alpha
            at_lower = self.status == _AT_LOWER
            at_upper = self.status == _AT_UPPER
            candidates = movable & ((at_lower & (signed < -PIVOT_TOL)) | (at_upper & (signed > PIVOT_TOL)))
            if not candidates.any():
                # Row r bounds x_r by what the nonbasic columns can still
                # give; entries at rounding level on columns of infinite
                # range are structural zeros. Cold phase 1 tolerates row
                # residuals summing to FEAS_TOL, which row r scales by at
                # most max |B_inv[r]|: the proof needs more than that.
                helps = (at_lower & (signed < 0.0)) | (at_upper & (signed > 0.0))
                gain = np.abs(alpha[helps])
                span = self.u[helps] - self.l[helps]
                finite = np.isfinite(span)
                if (~finite & (gain > 1e-12 * max(1.0, float(np.abs(alpha).max())))).any():
                    return "stalled"
                reach = float(np.sum(gain[finite] * span[finite]))
                margin = 10.0 * FEAS_TOL * max(1.0, float(np.abs(self.B_inv[r]).max()))
                return "infeasible" if violation[r] - reach > margin else "stalled"

            reduced = self.reduced_costs()
            cols = np.flatnonzero(candidates)
            ratios = np.abs(reduced[cols]) / np.abs(alpha[cols])
            ties = cols[ratios <= ratios.min() + 1e-12]
            q = int(ties[np.argmax(np.abs(alpha[ties]))])  # the steadiest pivot among ties

            target = self.l[self.basis[r]] if rising else self.u[self.basis[r]]
            dq = self.B_inv @ self.A[:, q]
            step = (xB[r] - target) / dq[r]
            out_col = int(self.basis[r])
            self.x[self.basis] = xB - step * dq
            self.x[q] += step
            self.x[out_col] = target
            self.status[out_col] = _AT_LOWER if rising else _AT_UPPER
            self.status[q] = _BASIC
            self.basis[r] = q

            self._pivot(r, dq)
            if self._pivots >= REFACTOR_EVERY:
                self._refactor()
        raise IterationCapExceeded(f"dual simplex exceeded {cap} iterations")

    def drive_out_artificials(self) -> None:
        """After phase 1, pivot basic artificials out where possible and
        pin every artificial at zero."""
        for pos in range(len(self.basis)):
            col = int(self.basis[pos])
            if col < self.art_cols[0]:
                continue
            alphas = (self.B_inv[pos] @ self.A)[: self.art_cols[0]]
            movable = np.flatnonzero((self.status[: self.art_cols[0]] != _BASIC) & (np.abs(alphas) > PIVOT_TOL))
            if movable.size == 0:
                self.x[col] = 0.0  # redundant row; artificial stays basic at 0
                continue
            candidate = int(movable[0])
            dq = self.B_inv @ self.A[:, candidate]
            self.basis[pos] = candidate
            self.status[candidate] = _BASIC
            self.status[col] = _AT_LOWER
            self.x[col] = 0.0
            self._pivot(pos, dq)
        self.l[self.art_cols] = 0.0
        self.u[self.art_cols] = 0.0
        self._refactor()


_last_assembly: _Assembly | None = None


def _assembly(problem: StandardFormProblem) -> _Assembly:
    """The arrays of ``problem``. The last assembly is kept, so solving
    one problem object many times in a row (the nodes of a tree search)
    assembles it once; the object is frozen and the assembly holds it, so
    the identity check cannot be fooled by a new object at a reused
    address."""
    global _last_assembly
    asm = _last_assembly
    if asm is None or asm.problem is not problem:
        asm = _last_assembly = None  # the old arrays go before the new ones exist
        asm = _last_assembly = _Assembly(problem)
    return asm


def slack_start(problem: StandardFormProblem) -> LpResult:
    """A result to pass as ``warm_start`` to a first solve of ``problem``,
    which then runs the dual simplex from the starting slack/artificial
    basis with every artificial boxed at [0, 0]. Its duals are zero, so
    each nonbasic column sits at the bound its own cost prefers."""
    asm = _assembly(problem)
    tableau = _Tableau(asm, asm.lower, asm.upper)
    tableau.u[tableau.art_cols] = 0.0
    return LpResult(status="unsolved", objective=math.nan, _tableau=tableau)


def _start_from(problem: StandardFormProblem, warm_start: LpResult | None) -> _Tableau | None:
    """The dual-feasible tableau to reoptimize from, or None for a cold
    solve: only a result of this very problem carries one."""
    start = warm_start._tableau if warm_start is not None else None
    return start if start is not None and start.asm.problem is problem else None


def _optimal(tableau: _Tableau, lower: np.ndarray, upper: np.ndarray) -> LpResult:
    """The result at an optimal tableau; raises MintPlanError when its
    point violates a row."""
    x = tableau.x[: tableau.n_struct].copy()
    np.clip(x, lower, upper, out=x)
    asm = tableau.asm
    worst = asm.worst_violation(x)
    if worst is not None:
        label = asm.problem.rows[worst[0]].label
        raise MintPlanError(f"simplex returned a point violating {label} by {worst[1]:g}")
    return LpResult(
        status="optimal",
        objective=float(np.dot(asm.objective, x)),
        x=x,
        basis=tuple(tableau.basis.tolist()),
        iterations=tableau.iterations,
        _tableau=tableau,
    )


def _reoptimize(start: _Tableau, lower: np.ndarray, upper: np.ndarray, cap: int) -> LpResult | None:
    """Dual simplex from ``start`` under new bounds, then the primal
    phase-2 pass if the dual pivoted; None on any trouble."""
    tableau = start.restarted(lower, upper)
    if tableau is None:
        return None
    try:
        status = tableau.dual_iterate(cap)
        if status == "infeasible":
            # the basis stays dual feasible, so the next solve restarts from it
            return LpResult(status="infeasible", objective=math.nan, iterations=tableau.iterations, _tableau=tableau)
        if status == "feasible":
            if tableau.iterations:
                tableau.iterate(tableau.asm.cost, cap)
            elif tableau._pivots:
                # every column sits at the bound its reduced cost prefers, so
                # the primal pass could only confirm: do what it does beyond pricing
                tableau._refactor()
            return _optimal(tableau, lower, upper)
    except (MintPlanError, np.linalg.LinAlgError):
        pass  # the iteration cap, an unblocked ray, a point off its rows, a singular basis
    return None


def _solve_cold(asm: _Assembly, lower: np.ndarray, upper: np.ndarray, cap: int) -> LpResult:
    if asm.box_misses_a_row(lower, upper):
        return LpResult(status="infeasible", objective=math.nan)  # what phase 1 would find
    tableau = _Tableau(asm, lower, upper)
    if tableau.need_phase1:
        c1 = np.zeros(asm.n_total)
        c1[tableau.art_cols] = 1.0
        tableau.iterate(c1, cap)
        if float(tableau.x[tableau.art_cols].sum()) > FEAS_TOL:
            return LpResult(status="infeasible", objective=math.nan)
        tableau.drive_out_artificials()
    tableau.iterate(asm.cost, cap)
    return _optimal(tableau, lower, upper)


def solve_lp(
    problem: StandardFormProblem,
    *,
    bounds_override: dict | None = None,
    iteration_cap: int | None = None,
    warm_start: LpResult | None = None,
) -> LpResult:
    """Solve the continuous relaxation of ``problem``.

    Binary markers are ignored, so binaries range over their [0, 1]
    bounds. ``bounds_override`` maps column index to a (lower, upper)
    pair and is how branch-and-bound fixes binaries. Every bound is
    finite, as the problem type demands of the model's own; a non-finite
    override entry raises MintPlanError. So the LP is boxed and the
    result is "optimal" or "infeasible", never unbounded. A lower bound
    above its upper by more than 1e-12 makes the LP infeasible, whether
    the model or the override sets it; the checks read the override's
    entries and nothing more of the model's columns than the assembly
    recorded. ``warm_start``, a result of this problem object that
    ``can_warm_start`` (an optimal or dual-proven infeasible one under
    other bounds, or the problem's ``slack_start``), makes the solve
    reoptimize from that basis by dual simplex; any other
    ``warm_start``, or a failed reoptimization, gives the cold solve.
    The default iteration budget is 50 * (rows + columns) per phase;
    exceeding it raises IterationCapExceeded rather than returning a
    wrong answer.
    """
    cap = iteration_cap if iteration_cap is not None else 50 * (len(problem.rows) + len(problem.columns))
    start = _start_from(problem, warm_start)
    asm = start.asm if start is not None else _assembly(problem)
    lower, upper, crossed = asm.bounds(bounds_override)
    if crossed:
        return LpResult(status="infeasible", objective=math.nan)
    if start is not None:
        result = _reoptimize(start, lower, upper, cap)
        if result is not None:
            return result
    return _solve_cold(asm, lower, upper, cap)

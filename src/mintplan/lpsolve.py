"""Bounded-variable simplex, written against the package's own problem
type: a two-phase primal method for cold solves and a dual method that
reoptimizes from an earlier optimal basis.

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
robustness wins. Variables move between a finite lower and a possibly
infinite upper bound, and a step that only sends the entering variable
to its opposite bound is taken as a bound flip without any basis
change.

A warm solve (``warm_start=``) takes the optimal basis and basis inverse
that an earlier solve of the same problem object, under other bounds,
carries in its result; any other warm start solves cold. The reduced
costs do not depend on the bounds, so putting each nonbasic column at
the bound its reduced cost prefers gives a dual-feasible start, and a
bounded dual simplex pivots back to primal feasibility: the most
violated basic value leaves, the dual ratio test picks the entering
column, and a row with no entering candidate proves the LP infeasible.
The primal phase-2 pass then confirms optimality. Any trouble falls back
to the cold solve: a preferred bound that is infinite, a singular
refactorization, a stall past the iteration budget, an infeasibility too slim
to prove with margin over the cold phase-1 tolerance, or a final point
off its rows.

Each cold solve assembles the structural matrix, right-hand sides,
slack layout and bounds with numpy; a warm solve reuses the arrays of
the solve it starts from, so an enumeration over one problem assembles
them once. The basis inverse is kept explicitly and updated
by the product form on each pivot, with a full refactorization (and a
fresh recomputation of the basic values) every few dozen pivots to keep
drift at machine precision. Each starting column is a signed unit
vector on its own row, so the starting basis is a signed identity and
its inverse is written down, not computed; a refactorization inverts
the basis only when a pivot has changed it since the last inversion,
since the same basis would invert to the same matrix. A pivot updates
only the rows of the inverse whose entry in the entering column is
nonzero: the full update would leave every other row as it is, but for
the sign of its zero entries.
"""

from __future__ import annotations

import copy
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

    ``objective`` is NaN for infeasible and -inf for unbounded problems;
    ``x`` covers the problem's own columns (no slacks) and is None
    unless the status is optimal. ``basis`` lists the basic columns in
    the solver's internal indexing (structural columns first, then one
    slack per inequality row, then one artificial per row). An optimal
    result carries the solver's arrays privately; passed as
    ``warm_start`` to another solve of the same problem object, it
    reoptimizes from this basis without assembly or factorization.
    """

    status: str
    objective: float
    x: np.ndarray | None = None
    basis: tuple[int, ...] = ()
    iterations: int = 0
    _tableau: "_Tableau | None" = field(default=None, repr=False, compare=False)


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

    def bounds(self, bounds_override: dict | None) -> tuple[np.ndarray, np.ndarray]:
        lower, upper = self.lower.copy(), self.upper.copy()
        for col, (lo, hi) in (bounds_override or {}).items():
            lower[col] = lo
            upper[col] = hi
        return lower, upper

    def box_misses_a_row(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Whether some row cannot be met anywhere in the bound box: its
        activity range over the box misses the right-hand side by more
        than ``10 * FEAS_TOL * max(1, |rhs|)``, well past what cold phase 1
        tolerates. An infinite bound makes its side of the range infinite
        wherever its column has a nonzero coefficient, and nowhere else."""
        A = self.A
        lo_inf, hi_inf = np.isinf(lower), np.isinf(upper)
        lo, hi = np.where(lo_inf, 0.0, lower), np.where(hi_inf, 0.0, upper)
        positive, negative = A > 0.0, A < 0.0
        A_pos, A_neg = np.where(positive, A, 0.0), np.where(negative, A, 0.0)
        least = A_pos @ lo + A_neg @ hi
        most = A_pos @ hi + A_neg @ lo
        least[positive @ lo_inf | negative @ hi_inf] = -np.inf
        most[positive @ hi_inf | negative @ lo_inf] = np.inf
        margin = 10.0 * FEAS_TOL * np.maximum(1.0, np.abs(self.b))
        too_low = (self.sense <= 0.0) & (most < self.b - margin)  # ">=" and "=" rows
        too_high = (self.sense >= 0.0) & (least > self.b + margin)  # "<=" and "=" rows
        return bool(np.any(too_low | too_high))

    def worst_violation(self, x: np.ndarray) -> tuple[int, float] | None:
        """The first row that ``x`` violates beyond tolerance, with the
        amount, or None."""
        gap = self.A @ x - self.b
        violation = np.where(self.sense == 0.0, np.abs(gap), np.maximum(0.0, self.sense * gap))
        bad = np.flatnonzero(violation > FEAS_TOL * np.maximum(1.0, np.abs(self.b)))
        if bad.size == 0:
            return None
        return int(bad[0]), float(violation[bad[0]])


class _Tableau:
    """Mutable solver state over the internal (structural+slack+artificial)
    column space."""

    def __init__(self, asm: _Assembly, lower: np.ndarray, upper: np.ndarray):
        m, n = asm.A.shape
        n_slack = len(asm.slack_rows)
        ntot = asm.n_total
        self.asm = asm
        self.n_struct = n
        A = np.zeros((m, ntot))
        A[:, :n] = asm.A
        b = asm.b

        self.l = np.concatenate([lower, np.zeros(n_slack), np.zeros(m)])
        self.u = np.concatenate([upper, np.full(n_slack, np.inf), np.full(m, np.inf)])
        self.x = np.zeros(ntot)
        finite_lower = np.isfinite(lower)
        near_upper = ~finite_lower & np.isfinite(upper)
        self.x[:n][finite_lower] = lower[finite_lower]
        self.x[:n][near_upper] = np.minimum(upper[near_upper], 0.0)
        self.status = np.full(ntot, _AT_LOWER, dtype=np.int8)
        self.status[:n][near_upper] = _AT_UPPER

        # residuals with every structural column at its starting bound
        residual = b - A[:, :n] @ self.x[:n]
        self.art_cols = np.arange(n + n_slack, ntot)
        slack_cols = np.arange(n, n + n_slack)
        A[asm.slack_rows, slack_cols] = asm.sense[asm.slack_rows]
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
        self._pivoted = False  # whether B_inv has been updated since its factorization
        self._recompute_basics()

    def restarted(self, lower: np.ndarray, upper: np.ndarray) -> _Tableau | None:
        """A copy at this tableau's basis under new structural bounds,
        with every nonbasic column at the bound its phase-2 reduced cost
        prefers (ties keep their side). None when a preferred bound is
        infinite, so the start is not dual feasible."""
        n = self.n_struct
        new = copy.copy(self)
        new.l, new.u = self.l.copy(), self.u.copy()
        new.l[:n], new.u[:n] = lower, upper
        new.basis, new.B_inv = self.basis.copy(), self.B_inv.copy()
        new.iterations = 0

        c = self.asm.cost
        reduced = c - (c[new.basis] @ new.B_inv) @ new.A
        tie = np.abs(reduced) <= DUAL_TOL
        at_upper = np.where(tie, self.status == _AT_UPPER, reduced < 0.0)
        at_upper[tie & ~np.isfinite(new.l)] = True
        at_upper[tie & ~np.isfinite(new.u)] = False
        new.x = np.where(at_upper, new.u, new.l)
        new.status = np.where(at_upper, _AT_UPPER, _AT_LOWER).astype(np.int8)
        new.status[new.basis] = _BASIC
        new.x[new.basis] = 0.0
        if not np.all(np.isfinite(new.x)):
            return None
        new._recompute_basics()
        return new

    def _refactor(self) -> None:
        """Recompute the basic values, after inverting the basis afresh
        if a pivot changed it since the last inversion (an unchanged
        basis would invert to the very same matrix)."""
        if self._pivoted:
            self.B_inv = np.linalg.inv(self.A[:, self.basis])
            self._pivoted = False
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
        self._pivoted = True

    def iterate(self, c: np.ndarray, cap: int) -> str:
        """Run simplex on objective ``c`` until optimal or unbounded.

        The basic values, bounds and costs live in arrays ordered like
        the basis for the length of the loop; ``self.x`` gets the basic
        values back before every return, and refactorizations recompute
        them from the nonbasic ones."""
        pivots_since = 0
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
                return "optimal"
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
                    x[basis] = xB
                    return "unbounded"
                xB += t_flip * eta
                x[q] = u[q] if direction > 0 else l[q]
                status[q] = _AT_UPPER if direction > 0 else _AT_LOWER
                side[q] = -direction
                continue
            if not math.isfinite(min_ratio):
                x[basis] = xB
                return "unbounded"

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
            pivots_since += 1
            if pivots_since >= REFACTOR_EVERY:
                self._refactor()
                xB = x[basis]
                pivots_since = 0
        x[basis] = xB
        raise IterationCapExceeded(f"simplex exceeded {cap} iterations")

    def dual_iterate(self, cap: int) -> str:
        """Run the bounded dual simplex from a dual-feasible basis until
        every basic value is within its bounds ("feasible"), a row proves
        the LP infeasible ("infeasible"), or a row has no entering
        column but no proof either ("stalled")."""
        pivots_since = 0
        movable = (self.u - self.l) > PIVOT_TOL
        for _ in range(cap):
            xB = self.x[self.basis]
            below = self.l[self.basis] - xB
            above = xB - self.u[self.basis]
            violation = np.maximum(below, above)
            if not violation.size or violation.max() <= BOUND_TOL:
                return "feasible"
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
                if np.any(~finite & (gain > 1e-12 * max(1.0, float(np.abs(alpha).max())))):
                    return "stalled"
                reach = float(np.sum(gain[finite] * span[finite]))
                margin = 10.0 * FEAS_TOL * max(1.0, float(np.abs(self.B_inv[r]).max()))
                return "infeasible" if violation[r] - reach > margin else "stalled"

            c = self.asm.cost
            reduced = c - (c[self.basis] @ self.B_inv) @ self.A
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
            pivots_since += 1
            if pivots_since >= REFACTOR_EVERY:
                self._refactor()
                pivots_since = 0
        raise IterationCapExceeded(f"dual simplex exceeded {cap} iterations")

    def drive_out_artificials(self) -> None:
        """After phase 1, pivot basic artificials out where possible and
        pin every artificial at zero."""
        for pos in range(len(self.basis)):
            col = int(self.basis[pos])
            if col < self.art_cols[0]:
                continue
            alphas = self.B_inv[pos] @ self.A
            candidate = None
            for j in range(self.art_cols[0]):
                if self.status[j] != _BASIC and abs(alphas[j]) > PIVOT_TOL:
                    candidate = j
                    break
            if candidate is None:
                self.x[col] = 0.0  # redundant row; artificial stays basic at 0
                continue
            dq = self.B_inv @ self.A[:, candidate]
            self.basis[pos] = candidate
            self.status[candidate] = _BASIC
            self.status[col] = _AT_LOWER
            self.x[col] = 0.0
            self._pivot(pos, dq)
        self.l[self.art_cols] = 0.0
        self.u[self.art_cols] = 0.0
        self._refactor()


def _start_from(problem: StandardFormProblem, warm_start: LpResult | None) -> _Tableau | None:
    """The optimal tableau to reoptimize from, or None for a cold solve:
    only an optimal result of this very problem carries one."""
    if warm_start is None or warm_start.status != "optimal":
        return None
    start = warm_start._tableau
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
        objective=float(np.dot(asm.problem.objective, x)),
        x=x,
        basis=tuple(tableau.basis.tolist()),
        iterations=tableau.iterations,
        _tableau=tableau,
    )


def _reoptimize(start: _Tableau, lower: np.ndarray, upper: np.ndarray, cap: int) -> LpResult | None:
    """Dual simplex from ``start`` under new bounds; None on any trouble."""
    tableau = start.restarted(lower, upper)
    if tableau is None:
        return None
    try:
        status = tableau.dual_iterate(cap)
        if status == "infeasible":
            return LpResult(status="infeasible", objective=math.nan, iterations=tableau.iterations)
        if status == "feasible" and tableau.iterate(tableau.asm.cost, cap) == "optimal":
            return _optimal(tableau, lower, upper)
    except (MintPlanError, np.linalg.LinAlgError):
        pass  # the iteration cap, a point off its rows, a singular basis
    return None


def _solve_cold(asm: _Assembly, lower: np.ndarray, upper: np.ndarray, cap: int) -> LpResult:
    if asm.box_misses_a_row(lower, upper):
        return LpResult(status="infeasible", objective=math.nan)  # what phase 1 would find
    tableau = _Tableau(asm, lower, upper)
    if tableau.need_phase1:
        c1 = np.zeros(asm.n_total)
        c1[tableau.art_cols] = 1.0
        status = tableau.iterate(c1, cap)
        if status != "optimal":  # a sum of nonnegatives cannot be unbounded
            raise MintPlanError("phase 1 reported unbounded; the model is corrupt")
        if float(tableau.x[tableau.art_cols].sum()) > FEAS_TOL:
            return LpResult(status="infeasible", objective=math.nan)
        tableau.drive_out_artificials()

    status = tableau.iterate(asm.cost, cap)
    if status == "unbounded":
        return LpResult(status="unbounded", objective=-math.inf)
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
    pair and is how branch-and-bound fixes binaries. ``warm_start``, an
    optimal result of this problem object under other bounds, makes the
    solve reoptimize from that basis by dual simplex; any other
    ``warm_start``, or a failed reoptimization, gives the cold solve. The default iteration budget is
    50 * (rows + columns) per phase; exceeding it raises
    IterationCapExceeded rather than returning a wrong answer.
    """
    cap = iteration_cap if iteration_cap is not None else 50 * (len(problem.rows) + len(problem.columns))
    start = _start_from(problem, warm_start)
    asm = start.asm if start is not None else _Assembly(problem)
    lower, upper = asm.bounds(bounds_override)
    if np.any(~np.isfinite(lower) & ~np.isfinite(upper)):
        raise MintPlanError("columns unbounded in both directions are not supported")
    if np.any(lower > upper + 1e-12):
        return LpResult(status="infeasible", objective=math.nan)
    if start is not None:
        result = _reoptimize(start, lower, upper, cap)
        if result is not None:
            return result
    return _solve_cold(asm, lower, upper, cap)

"""Exact linear programming over rationals.

One form is solved: maximize or minimize c.x subject to rows a.x <= b,
a.x >= b or a.x == b, with every variable x_j >= 0 (the objective may be
left at zero to test feasibility).  The solver is a dense two-phase primal
simplex with Bland's rule throughout, so termination is guaranteed even on
the heavily degenerate models the solvers build.  All arithmetic is
fractions.Fraction; no floats ever enter the tableau.

Dual values are read off the final tableau (slack, surplus or artificial
columns carry +/- the row prices).  Every optimal solve is certified against
the model's own rows before it returns: x >= 0 satisfies every row, the
duals are feasible for the dual program, and ``value == sum(duals[i] *
rows[i].rhs)`` holds exactly.  Sign pattern for a maximization: duals of
``<=`` rows are >= 0, of ``>=`` rows are <= 0, of ``==`` rows free; for a
minimization the signs flip.  A failed check raises ``CertificateError``;
the checks are plain code, so ``python -O`` keeps them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, InstanceFormatError, IterationCap
from .rationals import ZERO, as_fraction

MAX = "max"
MIN = "min"
LE = "<="
GE = ">="
EQ = "=="

DEFAULT_PIVOT_CAP = 10**6

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_FLIPPED = {LE: GE, GE: LE, EQ: EQ}
_HOLDS = {LE: operator.le, GE: operator.ge, EQ: operator.eq}


@dataclass
class LPRow:
    coeffs: list[Fraction]
    rel: str
    rhs: Fraction


class LPModel:
    """A linear program over nonnegative variables, in natural (row) form."""

    def __init__(self, num_vars: int, sense: str = MAX):
        if sense not in (MAX, MIN):
            raise InstanceFormatError(f"unknown sense {sense!r}")
        self.num_vars = num_vars
        self.sense = sense
        self.objective: list[Fraction] = [ZERO] * num_vars
        self.rows: list[LPRow] = []

    def _dense(self, coeffs) -> list[Fraction]:
        dense = [ZERO] * self.num_vars
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        for j, v in items:
            if not 0 <= j < self.num_vars:
                raise InstanceFormatError(f"variable index {j} out of range")
            dense[j] = as_fraction(v)
        return dense

    def set_objective(self, coeffs) -> None:
        self.objective = self._dense(coeffs)

    def add_row(self, coeffs, rel: str, rhs) -> int:
        if rel not in (LE, GE, EQ):
            raise InstanceFormatError(f"unknown relation {rel!r}")
        self.rows.append(LPRow(self._dense(coeffs), rel, as_fraction(rhs)))
        return len(self.rows) - 1


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    x: list[Fraction] | None = None
    duals: list[Fraction] | None = None
    pivots: int = 0


class _Tableau:
    """Standard-form simplex state: maximize c.z, A z (+slacks) = b, z >= 0."""

    def __init__(self, n_struct, a_rows, rels, rhs, pivot_cap):
        self.m = len(a_rows)
        self.pivot_cap = pivot_cap
        self.pivots = 0
        self.n_struct = n_struct
        cols = n_struct
        self.slack_col: list[int | None] = [None] * self.m
        self.surplus_col: list[int | None] = [None] * self.m
        self.art_col: list[int | None] = [None] * self.m
        for i, rel in enumerate(rels):
            if rel == LE:
                self.slack_col[i] = cols
                cols += 1
            elif rel == GE:
                self.surplus_col[i] = cols
                cols += 1
        for i, rel in enumerate(rels):
            if rel in (GE, EQ):
                self.art_col[i] = cols
                cols += 1
        self.ncols = cols
        self.tab: list[list[Fraction]] = []
        self.basis: list[int] = []
        for i in range(self.m):
            row = list(a_rows[i]) + [ZERO] * (cols - n_struct)
            if self.slack_col[i] is not None:
                row[self.slack_col[i]] = Fraction(1)
            if self.surplus_col[i] is not None:
                row[self.surplus_col[i]] = Fraction(-1)
            if self.art_col[i] is not None:
                row[self.art_col[i]] = Fraction(1)
            row.append(rhs[i])
            self.tab.append(row)
            self.basis.append(self.art_col[i] if self.art_col[i] is not None else self.slack_col[i])
        self.artificial = {c for c in self.art_col if c is not None}

    def _pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise IterationCap(f"simplex exceeded {self.pivot_cap} pivots")
        tab = self.tab
        prow = tab[row]
        inv = prow[col]
        if inv != 1:
            tab[row] = prow = [v / inv for v in prow]
        for r, other in enumerate(tab):
            if r == row:
                continue
            factor = other[col]
            if factor != 0:
                tab[r] = [a - factor * b for a, b in zip(other, prow)]
        self.basis[row] = col

    def _reduced_costs(self, costs: list[Fraction]) -> list[Fraction]:
        # r_j = c_j - c_B . (B^-1 A)_j computed from the current tableau.
        zrow = list(costs)
        for i, bv in enumerate(self.basis):
            cb = costs[bv]
            if cb != 0:
                row = self.tab[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        zrow[j] -= cb * row[j]
        return zrow

    def _bland(self, costs: list[Fraction], allowed: list[int]) -> str:
        """Run simplex to optimality with Bland's rule; returns 'optimal'/'unbounded'."""
        zrow = self._reduced_costs(costs)
        rhs_ix = self.ncols
        while True:
            enter = -1
            for j in allowed:
                if zrow[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best_ratio = None
            for i in range(self.m):
                coeff = self.tab[i][enter]
                if coeff > 0:
                    ratio = self.tab[i][rhs_ix] / coeff
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)
            # Same elimination step on the reduced-cost row (pivot row is
            # already normalized, so the entering cost drops to zero).
            factor = zrow[enter]
            if factor != 0:
                prow = self.tab[leave]
                zrow = [a - factor * b for a, b in zip(zrow, prow)]

    def solution(self) -> list[Fraction]:
        z = [ZERO] * self.ncols
        for i, bv in enumerate(self.basis):
            z[bv] = self.tab[i][self.ncols]
        return z


def solve(model: LPModel, pivot_cap: int = DEFAULT_PIVOT_CAP) -> LPResult:
    """Solve the model exactly; returns status optimal/infeasible/unbounded."""
    n = model.num_vars
    maximize = model.sense == MAX

    # Standard form: every right-hand side nonnegative, rows flipped to match.
    flips = [row.rhs < 0 for row in model.rows]
    a_rows = [[-v for v in row.coeffs] if flip else row.coeffs for row, flip in zip(model.rows, flips)]
    rels = [_FLIPPED[row.rel] if flip else row.rel for row, flip in zip(model.rows, flips)]
    rhs = [abs(row.rhs) for row in model.rows]
    tab = _Tableau(n, a_rows, rels, rhs, pivot_cap)

    # Phase 1: drive artificials to zero.
    if tab.artificial:
        costs1 = [ZERO] * tab.ncols
        for c in tab.artificial:
            costs1[c] = Fraction(-1)
        allowed = [j for j in range(tab.ncols) if j not in tab.artificial]
        status = tab._bland(costs1, allowed)
        if status != OPTIMAL:
            raise CertificateError(f"phase-1 objective is bounded by construction, yet ended {status}")
        z = tab.solution()
        if any(z[c] != 0 for c in tab.artificial):
            return LPResult(status=INFEASIBLE, pivots=tab.pivots)
        # Pivot leftover artificials out of the basis where possible.
        for i in range(tab.m):
            if tab.basis[i] in tab.artificial:
                for j in allowed:
                    if tab.tab[i][j] != 0:
                        tab._pivot(i, j)
                        break

    costs2 = [ZERO] * tab.ncols
    for j, c in enumerate(model.objective):
        costs2[j] = c if maximize else -c
    allowed = [j for j in range(tab.ncols) if j not in tab.artificial]
    status = tab._bland(costs2, allowed)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED, pivots=tab.pivots)

    x = tab.solution()[:n]
    value = sum((c * v for c, v in zip(model.objective, x) if v != 0), ZERO)

    # Row prices from the final reduced costs, mapped back to the model's
    # row orientation and sense.
    zrow = tab._reduced_costs(costs2)
    duals: list[Fraction] = []
    for i in range(tab.m):
        if tab.slack_col[i] is not None:
            y = -zrow[tab.slack_col[i]]
        elif tab.surplus_col[i] is not None:
            y = zrow[tab.surplus_col[i]]
        else:
            y = -zrow[tab.art_col[i]]
        if flips[i]:
            y = -y
        duals.append(y if maximize else -y)

    _certify(model, x, duals, value)
    return LPResult(status=OPTIMAL, value=value, x=x, duals=duals, pivots=tab.pivots)


def _certify(model: LPModel, x: list[Fraction], duals: list[Fraction], value: Fraction) -> None:
    """Exact optimality certificate: primal feasibility, dual feasibility and
    strong duality, which together imply optimality by weak duality."""
    sign = 1 if model.sense == MAX else -1
    if any(v < 0 for v in x):
        raise CertificateError("negative variable in certified solution")
    reduced = list(model.objective)  # c_j - sum_i y_i a_ij
    dual_value = ZERO
    for row, y in zip(model.rows, duals):
        lhs = sum((a * x[j] for j, a in enumerate(row.coeffs) if a != 0 and x[j] != 0), ZERO)
        if not _HOLDS[row.rel](lhs, row.rhs):
            raise CertificateError("primal infeasibility in certified solution")
        if (row.rel == LE and sign * y < 0) or (row.rel == GE and sign * y > 0):
            raise CertificateError("row price has the wrong sign")
        if y != 0:
            dual_value += y * row.rhs
            for j, a in enumerate(row.coeffs):
                if a != 0:
                    reduced[j] -= y * a
    if any(sign * r > 0 for r in reduced):
        raise CertificateError("dual infeasibility on a column")
    if dual_value != value:
        raise CertificateError("strong duality failed")

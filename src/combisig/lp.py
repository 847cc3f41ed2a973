"""Exact linear programming over rationals.

One form is solved: maximize or minimize c.x subject to rows a.x <= b,
a.x >= b or a.x == b, with every variable x_j >= 0 (the objective may be
left at zero to test feasibility).  The solver is a dense two-phase primal
simplex with Bland's rule throughout, so termination is guaranteed even on
the heavily degenerate models the solvers build.  No floats ever enter it.

Each row, and the objective, comes as ints over one positive denominator
(or as Fractions, ints or strings, put over one first) and is stored in
integers: times s_i, the least positive integer making it integral
(``LPRow``).  The tableau is fraction-free
(Edmonds 1967, Bareiss 1968): it copies the stored rows, so each
standard-form row and its slack, surplus or artificial column are
integers; the slack then stands for s_i times the unscaled one.  With d > 0
the determinant of the current basis, the tableau holds d * B^-1 [A | b] in
integers, and a pivot on entry p replaces every other entry by the exact
quotient (p * T[i][j] - T[i][c] * T[r][j]) / d, then sets d = |p| (a
negative p, from a dual pivot below or a leftover artificial driven out
after phase 1, negates every row).  The reduced costs are one more such row, kept
as d * L times their values, L the objective's scale, and the ratio test
compares rhs_i / T[i][c] by cross-multiplication.  Scaling rows leaves the
structural columns of B^-1 A unchanged and scales a slack's reduced cost
by 1/s_i > 0.  Phase 1 gives artificial i the cost -1/s_i, which is -1 for
the unscaled artificial.  So every reduced cost has the sign, and every
ratio test the order, of the unscaled Fraction tableau: on a cold solve,
Bland's rule takes the same pivots.

A model keeps its last optimal tableau.  When only ``<=``/``>=`` rows were
appended since, ``solve`` resumes it with the dual simplex (Lemke 1954): each
new row, a ``>=`` row negated, is written in the current basis with its slack
basic, so d and the dual-feasible reduced costs stay: the tableau keeps its
final reduced-cost row, which gains a zero per new slack, and the resumed
solve starts from it.  While a right-hand side is negative, the least basic
column among those rows leaves and the least ratio enters, ties to the
least column: Bland's rule on the dual, so no basis repeats and the pivots
end (Bland 1977).  Any other change solves cold.

Dual values are read off the final reduced costs (slack, surplus or
artificial columns carry +/- the row prices), mapped back through s_i and
L.  Every optimal solve is certified against the model's own rows before
it returns: x >= 0 satisfies every row, the duals are feasible for the
dual program, and ``c.x == value == sum(duals[i] * rows[i].rhs)`` holds
exactly.  Sign pattern for a maximization: duals of ``<=`` rows are >= 0,
of ``>=`` rows are <= 0, of ``==`` rows free; for a minimization the signs
flip.  The checks run in integers over the stored rows, on the tableau's
own integers: x as its basic values over d (``_Tableau.solution``, which
x and the scheme read too), the prices y_i / s_i as the raw final reduced
costs over d * L.  Each relation is multiplied through by positive factors
(s_i * d for row i), so it keeps its direction and the integer checks hold
exactly when the rational ones do; the dual-feasibility update touches only
each priced row's nonzero entries.  A failed check raises
``CertificateError``; the checks are plain code, so ``python -O`` keeps them.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .errors import CertificateError, InstanceFormatError, IterationCap
from .model import Record
from .rationals import ONE, ZERO, as_fraction, over_one_denominator

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


class LPRow(Record):
    """The row ``coeffs . x rel rhs``, stored once in integers: ``a`` and
    ``b`` are ``coeffs`` and ``rhs`` times ``scale``, the lcm of their
    denominators, the least positive integer that makes them integral."""

    __slots__ = ("a", "rel", "b", "scale")

    def __init__(self, a: list[int], rel: str, b: int, scale: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "scale", scale)

    @property
    def coeffs(self) -> list[Fraction]:
        return [Fraction(v, self.scale) for v in self.a]

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.b, self.scale)


class LPModel:
    """A linear program over nonnegative variables, in natural (row) form.
    The objective is stored like a row: ``cost`` is it times ``cost_scale``."""

    def __init__(self, num_vars: int, sense: str = MAX):
        if sense not in (MAX, MIN):
            raise InstanceFormatError(f"unknown sense {sense!r}")
        self.num_vars = num_vars
        self.sense = sense
        self.cost: list[int] = [0] * num_vars
        self.cost_scale = 1
        self.rows: list[LPRow] = []
        self._warm: _Tableau | None = None  # the last optimal tableau, which ``solve`` may resume

    @property
    def objective(self) -> list[Fraction]:
        return [Fraction(c, self.cost_scale) for c in self.cost]

    def _scaled(self, coeffs, rhs, den: int) -> tuple[list[int], int, int]:
        """``coeffs / den`` (dense) and ``rhs`` times their least scale, and the
        scale; coefficients not all ints go over one denominator first."""
        if type(den) is not int or den <= 0:
            raise InstanceFormatError(f"row denominator {den!r} is not a positive integer")
        dense = [0] * self.num_vars
        ints = True
        for j, v in coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs):
            if not 0 <= j < self.num_vars:
                raise InstanceFormatError(f"variable index {j} out of range")
            dense[j] = v
            ints = ints and type(v) is int
        if not ints:
            dense, common = over_one_denominator([as_fraction(v) for v in dense])
            den *= common
        rhs = rhs if type(rhs) is int else as_fraction(rhs)
        # With g = gcd(den, *dense), den / g is the least k making every k * v / den integral.
        g = gcd(den, *dense)
        scale = lcm(den // g, rhs.denominator)
        k = scale * g // den
        return [v // g * k for v in dense], rhs.numerator * (scale // rhs.denominator), scale

    def set_objective(self, coeffs, den: int = 1) -> None:
        """The objective ``coeffs / den``: ints over ``den``, or Fractions, ints and strings."""
        self.cost, _, self.cost_scale = self._scaled(coeffs, 0, den)

    def add_row(self, coeffs, rel: str, rhs, den: int = 1) -> int:
        """Appends the row ``(coeffs / den) . x rel rhs``, spelled as for ``set_objective``."""
        if rel not in (LE, GE, EQ):
            raise InstanceFormatError(f"unknown relation {rel!r}")
        a, b, scale = self._scaled(coeffs, rhs, den)
        self.rows.append(LPRow(a, rel, b, scale))
        return len(self.rows) - 1


class LPResult(Record):
    __slots__ = ("status", "value", "x", "duals", "pivots")

    def __init__(
        self,
        status: str,
        value: Fraction | None = None,
        x: list[Fraction] | None = None,
        duals: list[Fraction] | None = None,
        pivots: int = 0,
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "pivots", pivots)


class _Tableau:
    """Standard-form simplex state, maximize c.z subject to A z = b, z >= 0,
    held over the integers: ``tab`` is ``d * B^-1 [A | b]`` for the current
    basis B, with ``d = |det B|`` computed from the row-scaled integer A."""

    def __init__(self, n_struct, rows: list[LPRow], flips: list[bool], pivot_cap):
        rels = [_FLIPPED[row.rel] if flip else row.rel for row, flip in zip(rows, flips)]
        self.m = len(rows)
        self.pivot_cap = pivot_cap
        self.pivots = 0
        self.flips = flips
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
        self.d = 1
        self.scale = [row.scale for row in rows]  # s_i: row i times s_i is integral
        self.tab: list[list[int]] = []
        self.basis: list[int] = []
        for i, (lp_row, flip) in enumerate(zip(rows, flips)):
            row = ([-v for v in lp_row.a] if flip else lp_row.a) + [0] * (cols - n_struct)
            if self.slack_col[i] is not None:
                row[self.slack_col[i]] = 1
            if self.surplus_col[i] is not None:
                row[self.surplus_col[i]] = -1
            if self.art_col[i] is not None:
                row[self.art_col[i]] = 1
            row.append(abs(lp_row.b))
            self.tab.append(row)
            self.basis.append(self.art_col[i] if self.art_col[i] is not None else self.slack_col[i])
        self.artificial = {c for c in self.art_col if c is not None}

    def append(self, n_struct, rows: list[LPRow]) -> None:
        """Write appended ``<=``/``>=`` rows in the current basis, a ``>=`` row
        negated, each with its new slack basic: det B and d are unchanged, and
        so is the kept reduced-cost row ``zrow``, but for a zero per slack."""
        k, cols = len(rows), self.ncols
        self.ncols += k
        self.tab = [row[:-1] + [0] * k + row[-1:] for row in self.tab]
        self.zrow += [0] * k
        for r, row in enumerate(rows):
            sign = -1 if row.rel == GE else 1
            a = [sign * v for v in row.a]
            new = [self.d * v for v in a] + [0] * (self.ncols - n_struct) + [sign * self.d * row.b]
            new[cols + r] = self.d
            for bv, trow in zip(self.basis[: self.m], self.tab):
                if bv < n_struct and a[bv]:
                    new = [v - a[bv] * t for v, t in zip(new, trow)]
            self.tab.append(new)
            self.scale.append(row.scale)
            self.flips.append(sign < 0)
        self.basis += range(cols, self.ncols)
        self.slack_col += range(cols, self.ncols)
        self.surplus_col += [None] * k
        self.art_col += [None] * k
        self.m += k

    def _pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise IterationCap(f"simplex exceeded {self.pivot_cap} pivots")
        tab = self.tab
        prow = tab[row]
        p = prow[col]
        d = self.d
        if p < 0:  # a dual pivot or a phase-1 drive-out: negate the pivot row, so d stays positive
            p, prow = -p, [-a for a in prow]
            tab[row] = prow
        for r, other in enumerate(tab):
            if r == row:
                continue
            f = other[col]
            if f:
                tab[r] = [(p * a - f * b) // d for a, b in zip(other, prow)]
            elif p != d:
                tab[r] = [p * a // d for a in other]
        self.d = p
        self.basis[row] = col

    def resumes(self, model: LPModel) -> bool:
        """Whether ``model`` has changed since this tableau's solve only by appended ``<=``/``>=`` rows."""
        return (
            self.objective == (model.sense, model.cost_scale, model.cost)
            and len(model.rows) >= self.m
            and all(map(operator.is_, self.rows, model.rows))
            and all(row.rel != EQ for row in model.rows[self.m :])
        )

    def _reduced_costs(self, costs: list[int]) -> list[int]:
        # d * (C_j - C_B . (B^-1 A)_j) for integer costs C, from the tableau.
        d = self.d
        zrow = [d * c for c in costs]
        for row, bv in zip(self.tab, self.basis):
            cb = costs[bv]
            if cb:
                zrow = [z - cb * a for z, a in zip(zrow, row)]
        return zrow

    def _bland(self, zrow: list[int], allowed: list[int]) -> tuple[str, list[int]]:
        """Bland's rule to optimality from the reduced-cost row ``zrow``, dual
        pivots while a right-hand side is negative; returns the status and
        the final reduced-cost row."""
        while True:
            # Dual: the least basic column with a negative rhs leaves, the least
            # ratio zrow_j / T[r][j] over T[r][j] < 0 enters, ties to the least j.
            leave = -1
            for i, row in enumerate(self.tab):
                if row[-1] < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave >= 0:
                prow, enter = self.tab[leave], -1
                for j in allowed:
                    a = prow[j]
                    if a < 0 and (enter < 0 or zrow[j] * den < num * a):
                        enter, num, den = j, zrow[j], a
                if enter < 0:
                    return INFEASIBLE, zrow
            else:
                for j in allowed:
                    if zrow[j] > 0:
                        enter = j
                        break
                else:
                    return OPTIMAL, zrow
                # Least ratio rhs_i / T[i][enter] over T[i][enter] > 0, compared
                # by cross-multiplication; ties go to the least basic column.
                for i, row in enumerate(self.tab):
                    a = row[enter]
                    if a > 0:
                        if leave < 0:
                            leave, num, den = i, row[-1], a
                            continue
                        lhs, rhs = row[-1] * den, num * a
                        if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                            leave, num, den = i, row[-1], a
                if leave < 0:
                    return UNBOUNDED, zrow
            f, d = zrow[enter], self.d
            self._pivot(leave, enter)
            # The reduced-cost row takes the same update as a tableau row.
            p, prow = self.d, self.tab[leave]
            zrow = [(p * z - f * b) // d for z, b in zip(zrow, prow)]

    def solution(self) -> list[int]:
        """The basic solution times d: z_j is the returned integer over d."""
        z = [0] * self.ncols
        for row, bv in zip(self.tab, self.basis):
            z[bv] = row[-1]
        return z


def solve(model: LPModel, pivot_cap: int = DEFAULT_PIVOT_CAP) -> LPResult:
    """Solve the model exactly; returns status optimal/infeasible/unbounded.
    Resumes the model's last optimal tableau where ``_Tableau.resumes`` allows."""
    n = model.num_vars
    maximize = model.sense == MAX
    tab, model._warm = model._warm, None  # a solve that fails leaves nothing to resume
    warm = tab is not None and tab.resumes(model)
    if warm:
        tab.pivots, tab.pivot_cap = 0, pivot_cap
        tab.append(n, model.rows[tab.m :])
    else:
        # Standard form: every right-hand side nonnegative, rows flipped to match.
        tab = _Tableau(n, model.rows, [row.b < 0 for row in model.rows], pivot_cap)
        # Phase 1: drive artificials to zero.  Artificial i stands for s_i times
        # the unscaled one, so its cost is -1/s_i, times L to make it integral.
        if tab.artificial:
            scale = lcm(*(tab.scale[i] for i, c in enumerate(tab.art_col) if c is not None))
            costs1 = [0] * tab.ncols
            for i, c in enumerate(tab.art_col):
                if c is not None:
                    costs1[c] = -(scale // tab.scale[i])
            allowed = [j for j in range(tab.ncols) if j not in tab.artificial]
            status, _ = tab._bland(tab._reduced_costs(costs1), allowed)
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

    costs2 = (model.cost if maximize else [-c for c in model.cost]) + [0] * (tab.ncols - n)
    allowed = [j for j in range(tab.ncols) if j not in tab.artificial]
    status, zrow = tab._bland(tab.zrow if warm else tab._reduced_costs(costs2), allowed)
    if status != OPTIMAL:
        return LPResult(status=status, pivots=tab.pivots)

    d, den = tab.d, tab.d * model.cost_scale
    X = tab.solution()[:n]
    x = [ONE if v == d else Fraction(v, d) if v else ZERO for v in X]
    value = Fraction(sum(map(operator.mul, model.cost, X)), den)

    # Row prices from the final reduced costs, over d * L, mapped to the
    # model's row orientation and sense; the model's rows price at y_i * s_i.
    prices: list[int] = []
    for i in range(tab.m):
        if tab.slack_col[i] is not None:
            y = -zrow[tab.slack_col[i]]
        elif tab.surplus_col[i] is not None:
            y = zrow[tab.surplus_col[i]]
        else:
            y = -zrow[tab.art_col[i]]
        prices.append(-y if tab.flips[i] == maximize else y)  # a flipped row negates, and so does a minimization
    duals = [Fraction(y * s, den) if y else ZERO for y, s in zip(prices, tab.scale)]

    _certify(model, X, d, prices, den, value)
    tab.objective, tab.rows, tab.zrow = (model.sense, model.cost_scale, list(model.cost)), list(model.rows), zrow
    model._warm = tab
    return LPResult(status=OPTIMAL, value=value, x=x, duals=duals, pivots=tab.pivots)


def _certify(model: LPModel, X: list[int], D: int, W: list[int], E: int, value: Fraction) -> None:
    """Exact optimality certificate: primal feasibility, dual feasibility and
    strong duality (``c.x == value == y.b``), which together imply
    optimality by weak duality; in integers, as the module docstring says:
    x = X / D and row i's price over its stored row, y_i / s_i, is W_i / E."""
    sign = 1 if model.sense == MAX else -1
    if any(v < 0 for v in X):
        raise CertificateError("negative variable in certified solution")
    reduced = [c * E for c in model.cost]  # L * E * (c_j - sum_i y_i a_ij)
    dual_value = 0  # E * y.b
    for row, w in zip(model.rows, W):
        if not _HOLDS[row.rel](sum(map(operator.mul, row.a, X)), row.b * D):
            raise CertificateError("primal infeasibility in certified solution")
        if (row.rel == LE and sign * w < 0) or (row.rel == GE and sign * w > 0):
            raise CertificateError("row price has the wrong sign")
        if w:
            dual_value += w * row.b
            f, a = model.cost_scale * w, row.a
            for j in compress(count(), a):
                reduced[j] -= f * a[j]
    if any(sign * r > 0 for r in reduced):
        raise CertificateError("dual infeasibility on a column")
    if sum(map(operator.mul, model.cost, X)) * value.denominator != value.numerator * model.cost_scale * D:
        raise CertificateError("reported value is not the objective at x")
    if dual_value * value.denominator != value.numerator * E:
        raise CertificateError("strong duality failed")

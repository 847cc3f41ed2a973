"""Exact simplex: known optima, duals, degeneracy, an independent
Fourier-Motzkin feasibility oracle on random systems, the integer tableau
against a ``Fraction`` reference pivot for pivot, warm solves after
appended rows against cold ones, and the certificate under ``python -O``
(with no ``assert`` in the package)."""

import ast
import gc
import itertools
import os
import random
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from combisig import jsonio, lp, persuasion
from combisig.errors import CertificateError, InstanceFormatError, IterationCap
from combisig.rationals import over_one_denominator
from helpers import fraction_simplex

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"


def solve_simple(obj, rows, sense=lp.MAX):
    model = lp.LPModel(len(obj), sense=sense)
    model.set_objective([F(v) for v in obj])
    for coeffs, rel, rhs in rows:
        model.add_row({i: F(c) for i, c in enumerate(coeffs) if c != 0}, rel, F(rhs))
    return lp.solve(model)


def test_single_var_box():
    res = solve_simple([1], [([1], lp.LE, 3)])
    assert res.status == lp.OPTIMAL and res.value == 3 and res.x[0] == 3


def test_infeasible():
    res = solve_simple([1], [([1], lp.GE, 1), ([1], lp.LE, 0)])
    assert res.status == lp.INFEASIBLE


def test_unbounded():
    res = solve_simple([1], [([-1], lp.LE, 0)])
    assert res.status == lp.UNBOUNDED


def test_min_sense():
    res = solve_simple([1, 1], [([1, 1], lp.GE, 2), ([1, -1], lp.EQ, 0)], sense=lp.MIN)
    assert res.status == lp.OPTIMAL and res.value == 2
    assert res.x == [1, 1]


def test_fractional_optimum():
    # max x+y s.t. 2x+y<=3, x+3y<=4 -> vertex (1, 1)
    res = solve_simple([1, 1], [([2, 1], lp.LE, 3), ([1, 3], lp.LE, 4)])
    assert res.value == 2 and res.x == [1, 1]
    # duals: y = (2/5, 1/5); value == y.b
    assert res.duals is not None
    assert sum(d * b for d, b in zip(res.duals, [F(3), F(4)])) == res.value


BEALE = (
    [F(3, 4), F(-150), F(1, 50), F(-6)],
    [
        ([F(1, 4), F(-60), F(-1, 25), F(9)], lp.LE, F(0)),
        ([F(1, 2), F(-90), F(-1, 50), F(3)], lp.LE, F(0)),
        ([F(0), F(0), F(1), F(0)], lp.LE, F(1)),
    ],
)


def test_beale_degenerate_cycling_instance():
    """The classic cycling example terminates under Bland's rule, and the
    optimum matches exhaustive vertex enumeration."""
    obj, rows = BEALE
    res = solve_simple(obj, rows)
    assert res.status == lp.OPTIMAL

    # independent oracle: enumerate all basic feasible points of the system
    # {Ax <= b, x >= 0} by picking 4 tight constraints out of 7
    tight_pool = [(row, rhs) for row, _, rhs in rows]
    tight_pool += [([F(1) if j == i else F(0) for j in range(4)], F(0)) for i in range(4)]
    best = None
    for combo in itertools.combinations(range(7), 4):
        A = [tight_pool[i][0] for i in combo]
        b = [tight_pool[i][1] for i in combo]
        x = _gauss_solve(A, b)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        if any(
            sum(c * v for c, v in zip(row, x)) > rhs for row, _, rhs in rows
        ):
            continue
        val = sum(c * v for c, v in zip(obj, x))
        best = val if best is None else max(best, val)
    assert res.value == best


def _gauss_solve(A, b):
    n = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [v - factor * w for v, w in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


# ---------------------------------------------------------------------------
# the integer tableau against the Fraction reference, pivot for pivot
# ---------------------------------------------------------------------------

# Redundant == rows with zero right-hand sides leave both artificials basic
# at zero after phase 1; the first drive-out pivot is on the -1 of x0.
DRIVE_OUT = (
    [F(1), F(0)],
    [([F(-1), F(1)], lp.EQ, F(0)), ([F(1), F(-1)], lp.EQ, F(0)), ([F(1), F(1)], lp.LE, F(4))],
)
# Denominators pairwise coprime, and large ones, so the row scales differ.
DENOMINATORS = (1, 2, 3, 7, 11, 13, 101, 9973, 2**31 - 1, 10**18 + 9)


def _model(obj, rows, sense=lp.MAX):
    model = lp.LPModel(len(obj), sense=sense)
    model.set_objective(obj)
    for coeffs, rel, rhs in rows:
        model.add_row(coeffs, rel, rhs)
    return model


def _random_lp(rng):
    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.choice(DENOMINATORS))

    n = rng.randint(2, 5)
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [q(-6, 6) if rng.random() < 0.7 else F(0) for _ in range(n)]
        rows.append((coeffs, rng.choice([lp.LE, lp.LE, lp.GE, lp.EQ]), q(-3, 9)))
    if rng.random() < 0.3:  # a negative multiple of a row, as an == row
        coeffs, _, rhs = rng.choice(rows)
        k = -q(1, 5)
        rows.append(([k * v for v in coeffs], lp.EQ, k * rhs))
    if rng.random() < 0.6:  # a box keeps most of them bounded
        rows.append(([F(1)] * n, lp.LE, q(1, 20)))
    return [q(-5, 5) for _ in range(n)], rows


def _same_as_reference(model):
    got, want = lp.solve(model), fraction_simplex(model)
    assert (got.status, got.value, got.x, got.duals, got.pivots) == (
        want.status, want.value, want.x, want.duals, want.pivots,
    )
    return got.status


def test_integer_tableau_matches_fraction_reference():
    rng = random.Random(1968)
    seen = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    for _ in range(300):
        obj, rows = _random_lp(rng)
        seen[_same_as_reference(_model(obj, rows, rng.choice([lp.MAX, lp.MIN])))] += 1
    assert min(seen.values()) >= 20, seen
    for obj, rows in (BEALE, DRIVE_OUT):
        assert _same_as_reference(_model(obj, rows)) == lp.OPTIMAL
        _same_as_reference(_model(obj, rows, lp.MIN))
    assert _same_as_reference(_model([F(1)], [([F(1)], lp.GE, F(1)), ([F(1)], lp.LE, F(0))])) == lp.INFEASIBLE
    assert _same_as_reference(_model([F(1)], [([F(-1)], lp.LE, F(0))])) == lp.UNBOUNDED


def test_drive_out_pivots_on_a_negative_entry(monkeypatch):
    entries = []
    genuine = lp._Tableau._pivot

    def spy(self, row, col):
        entries.append(self.tab[row][col])
        genuine(self, row, col)

    monkeypatch.setattr(lp._Tableau, "_pivot", spy)
    res = lp.solve(_model(*DRIVE_OUT))
    assert entries[0] < 0
    assert res.status == lp.OPTIMAL and res.value == 2 and res.x == [2, 2]


def test_iteration_cap():
    model = lp.LPModel(2, sense=lp.MAX)
    model.set_objective([F(1), F(1)])
    model.add_row({0: F(1), 1: F(1)}, lp.LE, F(1))
    with pytest.raises(IterationCap):
        lp.solve(model, pivot_cap=0)


# ---------------------------------------------------------------------------
# appended rows: the kept tableau against a cold solve
# ---------------------------------------------------------------------------


def _cold(model):
    """``model``'s objective and rows in a fresh model, solved cold."""
    fresh = _model(model.objective, [(row.coeffs, row.rel, row.rhs) for row in model.rows], model.sense)
    return lp.solve(fresh)


def _count_starts(monkeypatch):
    """Counts cold tableaux built and warm ones resumed by ``lp.solve``."""
    counts = {"cold": 0, "warm": 0}
    init, append = lp._Tableau.__init__, lp._Tableau.append

    def cold(self, *args):
        counts["cold"] += 1
        init(self, *args)

    def warm(self, *args):
        counts["warm"] += 1
        append(self, *args)

    monkeypatch.setattr(lp._Tableau, "__init__", cold)
    monkeypatch.setattr(lp._Tableau, "append", warm)
    return counts


def _row_batch(rng, model, q):
    """One to three ``<=``/``>=`` rows: random ones with right-hand sides of
    either sign, duplicates of an inequality row, looser multiples of one
    (redundant), and now and then a zero row that no x satisfies."""
    n = model.num_vars
    inequalities = [row for row in model.rows if row.rel != lp.EQ]
    batch = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2 and inequalities:
            row = rng.choice(inequalities)
            batch.append((row.coeffs, row.rel, row.rhs))
        elif kind < 0.35 and inequalities:
            row, k = rng.choice(inequalities), q(1, 4) + 1
            looser = k * row.rhs + (1 if row.rel == lp.LE else -1)
            batch.append(([k * v for v in row.coeffs], row.rel, looser))
        elif kind < 0.4:
            batch.append(([F(0)] * n, rng.choice([lp.LE, lp.GE]), F(-1) if rng.random() < 0.5 else F(1)))
        else:
            coeffs = [q(-6, 6) if rng.random() < 0.7 else F(0) for _ in range(n)]
            batch.append((coeffs, rng.choice([lp.LE, lp.GE]), q(-6, 6)))
    if batch[-1] in batch[:-1] or rng.random() < 0.1:
        batch.append(batch[-1])  # the same row twice in one batch
    return batch


def test_warm_solves_after_appended_rows_match_cold_solves(monkeypatch):
    """Random bounded LPs of both senses, with == rows among the first
    ones, get batches of rows between solves; every solve resumes the last
    optimal tableau, and its status and value equal a cold solve of a fresh
    model with the same rows, under the certificate, until a batch makes
    the LP infeasible.  A resumed solve keeps the reduced costs dual
    feasible, so it pivots only on negative entries: no primal pivot.  The
    reduced-cost row it starts from, the last solve's final row with a zero
    per appended slack, equals the row rebuilt from the tableau."""
    rng = random.Random(1954)

    def q(lo, hi):
        return F(rng.randint(lo, hi), rng.choice(DENOMINATORS))

    counts = _count_starts(monkeypatch)
    kept = []
    counted_append = lp._Tableau.append

    def checked_append(self, *args):
        counted_append(self, *args)
        sense, _, cost = self.objective
        costs = (cost if sense == lp.MAX else [-c for c in cost]) + [0] * (self.ncols - len(cost))
        kept.append(self.zrow == self._reduced_costs(costs))

    monkeypatch.setattr(lp._Tableau, "append", checked_append)
    entries = []
    genuine = lp._Tableau._pivot

    def spy(self, row, col):
        entries.append(self.tab[row][col])
        genuine(self, row, col)

    monkeypatch.setattr(lp._Tableau, "_pivot", spy)
    seen = {"dual pivots": 0, "warm infeasible": 0, lp.MAX: 0, lp.MIN: 0}
    for _ in range(300):
        obj, rows = _random_lp(rng)
        rows.append(([F(1)] * len(obj), lp.LE, q(1, 20)))  # bounded, so each sense has an optimum
        model = _model(obj, rows, rng.choice([lp.MAX, lp.MIN]))
        if lp.solve(model).status != lp.OPTIMAL:
            continue
        for _ in range(rng.randint(1, 4)):
            for coeffs, rel, rhs in _row_batch(rng, model, q):
                model.add_row(coeffs, rel, rhs)
            before = dict(counts)
            entries.clear()
            kept.clear()
            warm = lp.solve(model)
            assert kept == [True]
            assert len(entries) == warm.pivots and all(e < 0 for e in entries)
            cold = _cold(model)
            assert counts["warm"] == before["warm"] + 1 and counts["cold"] == before["cold"] + 1
            assert (warm.status, warm.value) == (cold.status, cold.value)
            seen["dual pivots"] += warm.pivots > 0
            if warm.status != lp.OPTIMAL:
                assert warm.status == lp.INFEASIBLE
                seen["warm infeasible"] += 1
                break
            _certify(model, warm.x, warm.duals, warm.value)
            seen[model.sense] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("change", ["objective", "sense", "equality row", "replaced row", "after infeasible"])
def test_a_model_changed_otherwise_is_solved_cold(monkeypatch, change):
    """After a solve, anything but appended inequality rows gives the cold
    result, pivot for pivot, from a new tableau."""
    obj, rows = [F(3), F(2), F(-1)], [
        ([F(1), F(1), F(1)], lp.LE, F(4)),
        ([F(1), F(-1, 3), F(0)], lp.GE, F(-1, 2)),
        ([F(0), F(1), F(1)], lp.EQ, F(5, 2)),
    ]
    model = _model(obj, rows)
    if change == "after infeasible":
        model.add_row([F(1), F(1), F(0)], lp.GE, F(5))
    first = lp.solve(model)
    assert first.status == (lp.INFEASIBLE if change == "after infeasible" else lp.OPTIMAL)
    model.add_row([F(1), F(0), F(0)], lp.LE, F(1, 7))  # alone, this would resume
    if change == "objective":
        model.set_objective([F(1), F(5), F(0)])
    elif change == "sense":
        model.sense = lp.MIN
    elif change == "equality row":
        model.add_row([F(0), F(1), F(0)], lp.EQ, F(1, 3))
    elif change == "replaced row":
        other = _model(obj, [([F(1), F(1), F(1)], lp.LE, F(3))])
        model.rows[0] = other.rows[0]
    counts = _count_starts(monkeypatch)
    got = lp.solve(model)
    assert counts == {"cold": 1, "warm": 0}
    want = _cold(model)
    assert (got.status, got.value, got.x, got.duals, got.pivots) == (
        want.status, want.value, want.x, want.duals, want.pivots,
    )


def test_tableaux_are_freed_with_their_models(monkeypatch):
    """A model holds its last optimal tableau and the tableau holds no path
    back to the model, so with the cycle collector off every tableau is
    freed once the operation that built it returns."""
    refs = []
    init = lp._Tableau.__init__

    def spy(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(lp._Tableau, "__init__", spy)
    weather = jsonio.instance_from_json(jsonio.load_json(str(SRC.parent / "instances" / "weather_pair.json")))
    gc.disable()
    try:
        result = persuasion.solve_full(weather)
        assert result.lp_stats["cut_rounds"] > 1 and len(refs) == 1
        model = _model(*DRIVE_OUT)
        lp.solve(model)
        model.add_row([F(1), F(0)], lp.LE, F(1))
        assert lp.solve(model).value == 1
        assert refs[-1]() is not None
        del model
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# rows stored in integers, and the certificate over them
# ---------------------------------------------------------------------------


def test_stored_rows_are_the_least_integer_multiple_of_the_fraction_rows():
    rng = random.Random(1967)
    for _ in range(200):
        n = rng.randint(1, 6)
        dense = [F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) if rng.random() < 0.7 else F(0) for _ in range(n)]
        rhs = F(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        # The same values as a list or a dict of Fractions, ints or strings.
        spelled = [v if v.denominator != 1 or rng.random() < 0.5 else int(v) for v in dense]
        spelled = [str(v) if rng.random() < 0.3 else v for v in spelled]
        coeffs = {j: v for j, v in enumerate(spelled) if dense[j] != 0} if rng.random() < 0.5 else spelled
        model = lp.LPModel(n, sense=rng.choice([lp.MAX, lp.MIN]))
        model.set_objective(coeffs)
        model.add_row(coeffs, rng.choice([lp.LE, lp.GE, lp.EQ]), str(rhs) if rng.random() < 0.3 else rhs)
        row = model.rows[0]
        assert row.a == [row.scale * v for v in dense] and row.b == row.scale * rhs
        # Every multiple k > 0 that makes the row integral divides out of
        # gcd(a, b, k) once, so the least one leaves gcd 1.
        assert row.scale > 0 and gcd(*row.a, row.b, row.scale) == 1
        assert row.coeffs == dense and row.rhs == rhs
        assert model.cost == [model.cost_scale * v for v in dense]
        assert model.cost_scale > 0 and gcd(*model.cost, model.cost_scale) == 1
        assert model.objective == dense
        again = lp.LPModel(n)
        again.add_row(row.coeffs, row.rel, row.rhs)
        assert again.rows[0] == row
        # The same row as ints over one denominator, times a random common
        # factor: the same stored row and objective.
        nums, den = over_one_denominator(dense)
        k = rng.choice(DENOMINATORS[:7])
        nums, den = [k * v for v in nums], k * den
        ints = {j: v for j, v in enumerate(nums) if v} if rng.random() < 0.5 else nums
        twin = lp.LPModel(n, sense=model.sense)
        twin.set_objective(ints, den)
        twin.add_row(ints, row.rel, rhs, den)
        assert twin.rows[0] == row and (twin.cost, twin.cost_scale) == (model.cost, model.cost_scale)
    for den in (0, -3, F(2), 2.0, True):
        with pytest.raises(InstanceFormatError, match="denominator"):
            lp.LPModel(1).add_row([1], lp.LE, 1, den)


def _certify(model, x, duals, value):
    """``lp._certify`` on ``Fraction`` x and duals: x over its one
    denominator, and each row's price over its stored row over theirs."""
    prices = [y / row.scale for row, y in zip(model.rows, duals)]
    lp._certify(model, *over_one_denominator(x), *over_one_denominator(prices), value)


def _forgery_model(sense):
    """Mixed denominators, and negative right-hand sides on a ``<=``, a
    ``>=`` and an ``==`` row, which the solver flips; bounded either way."""
    model = lp.LPModel(3, sense=sense)
    model.set_objective([F(1, 2), F(1, 3) if sense == lp.MAX else F(-1, 3), F(1, 5)])
    model.add_row([F(2, 3), F(1, 5), F(3, 7)], lp.LE, F(3, 2))
    model.add_row([F(-1), F(-1, 2), F(0)], lp.LE, F(-1, 4))
    model.add_row([F(1, 3), F(-1, 4), F(1, 11)], lp.GE, F(-5, 6))
    model.add_row([F(1), F(-1), F(1, 2)], lp.EQ, F(-1, 2))
    model.add_row([F(0), F(1), F(0)], lp.LE, F(9, 4))
    return model


@pytest.mark.parametrize("sense", [lp.MAX, lp.MIN])
def test_certificate_refuses_each_forgery(sense):
    model = _forgery_model(sense)
    res, want = lp.solve(model), fraction_simplex(model)
    assert res.status == lp.OPTIMAL and (res.value, res.x, res.duals) == (want.value, want.x, want.duals)
    assert len({v.denominator for v in res.x + res.duals}) > 1
    _certify(model, res.x, res.duals, res.value)  # the genuine one holds

    def refused(x, duals, value, message):
        with pytest.raises(CertificateError, match=message):
            _certify(model, x, duals, value)

    sign = 1 if sense == lp.MAX else -1
    refused([F(-1, 3)] + res.x[1:], res.duals, res.value, "negative variable")
    # x1 = 5/2 >= 0 breaks the x1 <= 9/4 row, whatever the other rows say.
    refused(res.x[:1] + [F(5, 2)] + res.x[2:], res.duals, res.value, "primal infeasibility")
    for i, row in enumerate(model.rows):
        if row.rel != lp.EQ:
            wrong = F(-sign if row.rel == lp.LE else sign, 7)
            refused(res.x, res.duals[:i] + [wrong] + res.duals[i + 1:], res.value, "wrong sign")
    # No prices at all have every sign right, but leave a column priced out:
    # x0's cost 1/2 > 0 for a maximization, x1's -1/3 < 0 for a minimization.
    refused(res.x, [F(0)] * len(model.rows), res.value, "dual infeasibility")
    refused(res.x, res.duals, res.value + F(1, 1000), "not the objective")
    # A feasible vertex of the opposite sense, reported at its own value, is
    # primal-feasible and honest about c.x, but y.b is the optimum.
    other = lp.LPModel(3, sense=lp.MIN if sense == lp.MAX else lp.MAX)
    other.set_objective(model.objective)
    for row in model.rows:
        other.add_row(row.coeffs, row.rel, row.rhs)
    worst = lp.solve(other)
    assert worst.value != res.value
    refused(worst.x, res.duals, worst.value, "strong duality")


# ---------------------------------------------------------------------------
# Fourier-Motzkin cross-check of feasibility verdicts
# ---------------------------------------------------------------------------


def fm_feasible(rows, num_vars) -> bool:
    """Eliminate variables one by one from a system of weak inequalities.

    rows: list of (coeffs, rel, rhs) with rel in {<=, >=, ==}; variables are
    free (bounds must be passed as rows).
    """
    ineqs = []  # each as (coeffs, rhs) meaning coeffs . x <= rhs
    for coeffs, rel, rhs in rows:
        c = [F(v) for v in coeffs]
        r = F(rhs)
        if rel in (lp.LE, lp.EQ):
            ineqs.append((c, r))
        if rel in (lp.GE, lp.EQ):
            ineqs.append(([-v for v in c], -r))
    for var in range(num_vars):
        pos, neg, rest = [], [], []
        for c, r in ineqs:
            if c[var] > 0:
                pos.append((c, r))
            elif c[var] < 0:
                neg.append((c, r))
            else:
                rest.append((c, r))
        new = rest
        for cp, rp in pos:
            for cn, rn in neg:
                scale_p, scale_n = -cn[var], cp[var]
                combo = [
                    scale_p * a + scale_n * b for a, b in zip(cp, cn)
                ]
                new.append((combo, scale_p * rp + scale_n * rn))
        ineqs = new
    return all(r >= 0 for c, r in ineqs)


def test_feasibility_matches_fourier_motzkin():
    rng = random.Random(20240817)
    agree = 0
    for trial in range(25):
        num_vars = rng.randint(2, 3)
        num_rows = rng.randint(2, 5)
        rows = []
        for _ in range(num_rows):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(num_vars)]
            rel = rng.choice([lp.LE, lp.GE, lp.EQ])
            rows.append((coeffs, rel, F(rng.randint(-6, 6))))
        # variables nonnegative in LPModel by default; mirror that for FM
        fm_rows = rows + [
            ([F(-1) if j == i else F(0) for j in range(num_vars)], lp.LE, F(0))
            for i in range(num_vars)
        ]
        model = lp.LPModel(num_vars)  # no objective: a feasibility test
        for coeffs, rel, rhs in rows:
            model.add_row(dict(enumerate(coeffs)), rel, rhs)
        verdict = lp.solve(model).status == lp.OPTIMAL
        assert verdict == fm_feasible(fm_rows, num_vars), f"trial {trial}"
        agree += 1
    assert agree == 25


def test_strong_duality_random():
    rng = random.Random(7)
    for _ in range(25):
        num_vars = rng.randint(2, 4)
        model = lp.LPModel(num_vars, sense=rng.choice([lp.MAX, lp.MIN]))
        model.set_objective([F(rng.randint(-5, 5)) for _ in range(num_vars)])
        for _ in range(rng.randint(1, 4)):
            coeffs = {i: F(rng.randint(-4, 4)) for i in range(num_vars)}
            model.add_row(coeffs, rng.choice([lp.LE, lp.GE]), F(rng.randint(0, 8)))
        for i in range(num_vars):
            model.add_row({i: 1}, lp.LE, F(rng.randint(1, 6)))
        res = lp.solve(model)  # the certificate is checked inside every solve
        if res.status == lp.OPTIMAL:
            recomputed = sum(
                c * v for c, v in zip(model.objective, res.x)
            )
            assert recomputed == res.value
            assert sum(d * row.rhs for d, row in zip(res.duals, model.rows)) == res.value


def test_package_has_no_assert_statements():
    """``python -O`` strips ``assert``, so every check in the package raises."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "combisig").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_feasible_actions_are_a_value_of_the_instance_not_an_argument():
    """Only ``persuasion.feasible_actions`` calls ``enumerate_actions``, and
    no function takes a ``pool`` of actions: every scan reads the list the
    instance keeps, so no layer threads one through its callers."""
    calls, inside, pools = [], [], []

    def enumerates(node) -> bool:
        func = getattr(node, "func", None)
        names = (getattr(func, "id", None), getattr(func, "attr", None))
        return isinstance(node, ast.Call) and "enumerate_actions" in names

    for path in sorted((SRC / "combisig").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if enumerates(node):
                calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if "pool" in [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]:
                    pools.append(f"{path.name}:{node.lineno}")
                if getattr(node, "name", None) == "feasible_actions" and path.name == "persuasion.py":
                    inside += [f"{path.name}:{n.lineno}" for n in ast.walk(node) if enumerates(n)]
    assert calls == inside and len(inside) == 1
    assert pools == []


def test_beliefs_are_integer_weights_outside_model():
    """Only ``model`` names ``Posterior``: every engine takes a belief as
    integer weights read over their sum, and no function forms a
    ``Fraction`` posterior or signal mass, or weighs a belief with
    ``Fraction`` coefficients."""
    names, defs = [], []
    for path in sorted((SRC / "combisig").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                named.add(node.name)
            if "Posterior" in named and path.name != "model.py":
                names.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
                "best_action", "posterior", "signal_mass"
            ):
                defs.append(f"{path.name}:{node.lineno}")
    assert names == [] and defs == []


def test_package_does_not_import_dataclasses():
    """Every CLI process would pay for ``dataclasses`` and the ``inspect``
    chain it loads; the package's records derive from ``model.Record``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "combisig").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert found == []


def test_certificate_survives_python_O():
    """Under ``python -O`` a forged simplex solution still raises
    CertificateError, both from lp.solve and from a solver built on it, and
    so do forged row prices under column generation, which reads them, an
    oracle's infeasible action in either relaxed engine, and a cell witness
    stepped nowhere off its vertex."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from combisig import arrangement, cce, jsonio, lp, persuasion
        from combisig.errors import CertificateError
        from combisig.model import Instance, Uniform, UtilitySpec

        assert False, "assert statements must be stripped"  # -O removes this line
        genuine = lp._Tableau.solution

        def forged(self):
            z = genuine(self)
            z[0] += 1
            return z

        lp._Tableau.solution = forged
        model = lp.LPModel(2)
        model.set_objective([1, 1])
        model.add_row([1, 1], lp.LE, 1)
        toy = jsonio.instance_from_json(jsonio.load_json(sys.argv[1]))

        def attempt(solve):
            try:
                solve()
            except CertificateError as exc:
                print("caught", exc)
            else:
                print("missed")

        attempt(lambda: lp.solve(model))
        attempt(lambda: persuasion.solve_full(toy))
        lp._Tableau.solution = genuine
        genuine_costs = lp._Tableau._reduced_costs

        def forged_costs(self, costs):
            # Artificial columns never enter a basis, so this moves only the
            # prices of == rows: every state's mass price in the relaxed LP
            # rises, no column prices out, and the loop would stop after
            # one round on a wrong optimum.
            zrow = genuine_costs(self, costs)
            for c in self.artificial:
                zrow[c] -= 1
            return zrow

        lp._Tableau._reduced_costs = forged_costs
        attempt(lambda: cce.solve_cce_exact(cce.make_view(toy)))
        lp._Tableau._reduced_costs = genuine_costs

        # An oracle proposing (0, 1) under Uniform(1): only certify stops
        # both relaxed engines from returning that infeasible action.
        single_pick = Instance(
            state_names=("s0", "s1"),
            prior=(Fraction(1, 2), Fraction(1, 2)),
            element_names=("e0", "e1"),
            sender=UtilitySpec.from_linear([[1, 1], [1, 1]]),
            receiver=UtilitySpec.from_linear([[2, 1], [1, 2]]),
            constraint=Uniform(1),
        )
        both = cce.ApproxOracle("custom", Fraction(1), lambda state, y: (0, 1))
        attempt(lambda: cce.solve_cce_exact(cce.make_view(single_pick, oracle=both)))
        attempt(lambda: cce.solve_cce_approx(cce.make_view(single_pick, oracle=both)))

        # A witness left on its vertex lies on a plane or a facet: its signs
        # are not those its probe found, which only the recheck notices.
        arrangement._step_point = lambda vertex, direction, funcs: vertex
        attempt(lambda: arrangement.enumerate_cells([arrangement.make_hyperplane((1, -1, 0))], 3))
        """
    )
    toy = Path(__file__).resolve().parents[1] / "instances" / "two_state_toy.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(toy)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6 and all(line.startswith("caught") for line in lines), done.stdout

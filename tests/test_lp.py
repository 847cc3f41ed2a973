"""Exact simplex: known optima, duals, degeneracy, an independent
Fourier-Motzkin feasibility oracle on random systems, and the certificate
under ``python -O`` (with no ``assert`` in the package)."""

import ast
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from combisig import lp
from combisig.errors import IterationCap

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


def test_beale_degenerate_cycling_instance():
    """The classic cycling example terminates under Bland's rule, and the
    optimum matches exhaustive vertex enumeration."""
    obj = [F(3, 4), F(-150), F(1, 50), F(-6)]
    rows = [
        ([F(1, 4), F(-60), F(-1, 25), F(9)], lp.LE, F(0)),
        ([F(1, 2), F(-90), F(-1, 50), F(3)], lp.LE, F(0)),
        ([F(0), F(0), F(1), F(0)], lp.LE, F(1)),
    ]
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


def test_iteration_cap():
    model = lp.LPModel(2, sense=lp.MAX)
    model.set_objective([F(1), F(1)])
    model.add_row({0: F(1), 1: F(1)}, lp.LE, F(1))
    with pytest.raises(IterationCap):
        lp.solve(model, pivot_cap=0)


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


def test_certificate_survives_python_O():
    """Under ``python -O`` a forged simplex solution still raises
    CertificateError, both from lp.solve and from a solver built on it, and
    so do forged row prices under column generation, which reads them, and
    an oracle's infeasible action in either relaxed engine."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from combisig import cce, jsonio, lp, persuasion
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
            # rises by one, no column prices out, and the loop would stop
            # after one round on a wrong optimum.
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
    assert len(lines) == 5 and all(line.startswith("caught") for line in lines), done.stdout

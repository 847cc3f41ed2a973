"""The integer view of an instance (``UtilitySpec.ints``, ``Instance.masses``)
and the hot paths that read it, against the ``Fraction`` references in
``helpers``: obedience passes with their gaps, best actions, tie-broken
responses, scheme values and whole ``solve_full`` / ``solve_reduced`` /
``solve_cce_exact`` runs against LPs built from ``Fraction`` values, on
derandomized corpora with mixed denominators and ties (utilities
from 0), over uniform, partition, graphic and oracle matroids and layered
and grid paths."""

import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

from combisig import cce, jsonio, persuasion
from combisig.best_response import enumerate_best_responses
from combisig.errors import InstanceFormatError
from combisig.model import TABULAR_MAX_ELEMENTS, Posterior, Sense, SignalingScheme
from helpers import (
    MIXED_DENOMINATORS,
    as_tables,
    fraction_best_action,
    fraction_exact_view,
    fraction_relaxed_lp,
    fraction_scheme_value,
    fraction_solve_full,
    fraction_tie_broken_response,
    fraction_value,
    fraction_violations,
    grid_path_instance,
    rand_instance,
)

F = Fraction
MATROIDS = ["uniform", "partition", "graphic", "oracle"]
KINDS = MATROIDS + ["layered", "grid"]


def _corpus(kind: str, count: int):
    """Instances with mixed denominators and utilities 0..3 over 1-3 states."""
    rng = random.Random(f"integer-view/{kind}")
    for _ in range(count):
        D = rng.randint(1, 3)
        if kind == "grid":
            inst = grid_path_instance(rng, 2, rng.randint(2, 3), D, lo=0, hi=3, dens=MIXED_DENOMINATORS)
        elif kind == "layered":
            inst = rand_instance(rng, D, rng.randint(2, 6), sense=Sense.MIN, lo=0, hi=3, dens=MIXED_DENOMINATORS)
        else:
            inst = rand_instance(rng, D, rng.randint(2, 5), kind, lo=0, hi=3, dens=MIXED_DENOMINATORS)
        yield rng, inst


def _rational_point(rng: random.Random, D: int) -> tuple[Fraction, ...]:
    """A belief with mixed denominators and some zero entries."""
    w = [F(rng.randint(0, 3), rng.choice(MIXED_DENOMINATORS)) for _ in range(D)]
    w[rng.randrange(D)] += 1
    return tuple(x / sum(w) for x in w)


def _rand_scheme(rng: random.Random, D: int, actions) -> SignalingScheme:
    """One to three recommended actions, each state's probabilities over
    them drawn with mixed denominators; a signal may have zero mass."""
    support = tuple(sorted(rng.sample(actions, min(len(actions), rng.randint(1, 3)))))
    phi = {}
    for t in range(D):
        for S, p in zip(support, _rational_point(rng, len(support))):
            phi[t, S] = p
    return SignalingScheme(D, support, phi)


def test_the_view_holds_every_entry_over_one_denominator():
    rng = random.Random(41)
    for _ in range(20):
        inst = rand_instance(rng, 3, 4, "uniform", lo=0, hi=5, dens=MIXED_DENOMINATORS)
        for util in (inst.receiver, inst.sender, as_tables(inst).receiver):
            rows, den = util.ints
            entries = [v for table in (util.linear or [t.values() for t in util.tabular]) for v in table]
            assert den == lcm(*(v.denominator for v in entries)) > 0
            ints = [v for row in rows for v in (row.values() if isinstance(row, dict) else row)]
            assert [F(v, den) for v in ints] == entries
        masses, den = inst.masses
        assert den == lcm(*(p.denominator for p in inst.prior))
        assert [F(m, den) for m in masses] == list(inst.prior)


def test_value_reads_the_view_and_refuses_an_index_out_of_range():
    rng = random.Random(42)
    inst = rand_instance(rng, 2, 5, "uniform", dens=MIXED_DENOMINATORS)
    for S in persuasion.enumerate_actions(inst.constraint, inst.num_elements):
        for t in range(2):
            assert inst.sender.value(t, S) == fraction_value(inst.sender, t, S)
    for bad in ((-1,), (0, 5), (7,)):
        with pytest.raises(InstanceFormatError, match="out of range"):
            inst.receiver.value(0, bad)


def test_the_view_is_built_on_first_use_and_stays_out_of_equality_and_pickling():
    """The integer view and the kept action list (``_actions``) alike."""
    raw = jsonio.load_json("instances/weather_pair.json")
    inst, twin = jsonio.instance_from_json(raw), jsonio.instance_from_json(raw)
    slots = ((inst.receiver, "_ints"), (inst.sender, "_ints"), (inst, "_masses"), (inst, "_actions"))
    for record, slot in slots:
        with pytest.raises(AttributeError):
            object.__getattribute__(record, slot)  # parsing built nothing
    persuasion.solve_full(inst)
    assert all(object.__getattribute__(record, slot) for record, slot in slots)  # now cached
    assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)
    assert all(slot not in repr(inst) for _, slot in slots)
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst
    for record, slot in ((copy.receiver, "_ints"), (copy, "_masses"), (copy, "_actions")):
        with pytest.raises(AttributeError):
            object.__getattribute__(record, slot)


@pytest.mark.parametrize("kind", KINDS)
def test_integer_passes_match_the_fraction_references(kind):
    """Violations with their gaps, best actions at a = 1, b = 0 and at
    a = y, b = 1, tie-broken responses and scheme values, on random schemes
    and beliefs; tabular copies take the scans.  Then ``solve_full``
    against the ``Fraction`` lazy-row loop: value, scheme and counters."""
    for rng, inst in _corpus(kind, 16):
        D = inst.num_states
        actions = persuasion.enumerate_actions(inst.constraint, inst.num_elements)
        variants = [inst]
        if inst.num_elements <= TABULAR_MAX_ELEMENTS and kind != "grid":
            variants.append(as_tables(inst))
        for copy in variants:
            for _ in range(3):
                scheme = _rand_scheme(rng, D, actions)
                assert persuasion._violations(copy, scheme) == fraction_violations(copy, scheme)
                for util in (copy.sender, copy.receiver):
                    assert persuasion._scheme_value(copy, scheme, util) == fraction_scheme_value(copy, scheme, util)
            for _ in range(3):
                xi = Posterior(_rational_point(rng, D))
                y = F(rng.randint(0, 9), rng.choice(MIXED_DENOMINATORS))
                for a, b in ((F(1), F(0)), (y, F(1))):
                    assert persuasion.best_action(copy, xi, a, b) == fraction_best_action(copy, xi, a, b)
                assert persuasion.tie_broken_response(copy, xi) == fraction_tie_broken_response(copy, xi)
        result = persuasion.solve_full(inst)
        assert (result.sender_value, result.scheme, result.lp_stats) == fraction_solve_full(inst)


@pytest.mark.parametrize("kind", MATROIDS)
def test_reduced_solves_match_the_fraction_lp(kind):
    """``solve_reduced``, whose objective and pair rows come from the
    integer view, against the ``Fraction`` lazy-row loop over the same
    recommendations: the same value, scheme and counters."""
    for _, inst in _corpus(kind, 10):
        got = persuasion.solve_reduced(inst)
        catalog = enumerate_best_responses(inst)
        actions = sorted({*catalog.actions, persuasion.tie_broken_response(inst, Posterior(inst.prior))})
        value, scheme, stats = fraction_solve_full(inst, actions)
        stats["perturbed"] = catalog.perturbed
        assert (got.sender_value, got.scheme, got.lp_stats) == (value, scheme, stats)


@pytest.mark.parametrize("kind", KINDS)
def test_relaxed_solves_match_the_fraction_oracle(kind, monkeypatch):
    """``solve_cce_exact`` against a view whose oracle and prior best are
    the ``Fraction`` best action, with the references in ``certify`` and
    each round's LP built from ``Fraction`` values: the same value, scheme
    and counters."""
    for _, inst in _corpus(kind, 10):
        got = cce.solve_cce_exact(cce.make_view(inst))
        with monkeypatch.context() as patch:
            patch.setattr(persuasion, "best_action", fraction_best_action)
            patch.setattr(persuasion, "_scheme_value", lambda *args: fraction_scheme_value(*args[:3]))
            patch.setattr(cce, "scheme_lp", fraction_relaxed_lp)
            want = cce.solve_cce_exact(fraction_exact_view(inst))
        assert (got.sender_value, got.scheme, got.lp_stats) == (want.sender_value, want.scheme, want.lp_stats)

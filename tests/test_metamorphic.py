"""Metamorphic relations of the engines: ``solve_full``, ``solve_cce_exact``,
``uninformative_scheme`` and, on clean matroid instances, ``solve_reduced``.

* Scaling every receiver utility by c > 0 changes no preference, so the
  value and the scheme stay.
* Scaling every sender utility by c > 0 multiplies the value by c.
* Permuting the states together with the prior, or relabelling the
  elements together with the constraint, renames the problem, so the
  value stays.
* Splitting a state into two copies with half its prior each changes no
  posterior a signal can induce, so the value stays.  The masses' common
  denominator changes with it, so the LP rows built from the integer view
  see other integers.
* Adding an element worth 0 to both players, independent wherever the
  matroid allows (a new edge of the graph, a member of a partition block),
  gives every action a twin worth the same to both, so the value stays.
  Paths are skipped.
* ``check_nondegeneracy`` decides whether differences of the receiver's
  per-element vectors are independent.  Scaling one state's row by c > 0
  maps them all by one invertible diagonal matrix, adding a constant to
  one state's row cancels in every difference, and scaling every utility
  is one positive scalar, so the report stays.

Derandomized: fixed seeds, fractional c, mixed denominators."""

import random
from fractions import Fraction

import pytest

from combisig import cce, persuasion
from combisig.best_response import check_nondegeneracy
from combisig.model import Graphic, Instance, Partition, PathGraph, Sense, UtilitySpec
from helpers import MIXED_DENOMINATORS, rand_clean_instance, rand_instance, replace_fields

F = Fraction


def _scaled(util: UtilitySpec, c: Fraction) -> UtilitySpec:
    return UtilitySpec.from_linear([[c * v for v in row] for row in util.linear])


def _permute_states(inst: Instance, perm: list[int]) -> Instance:
    """State k of the result is state perm[k] of ``inst``."""

    def rows(util):
        return UtilitySpec.from_linear([util.linear[t] for t in perm])

    return replace_fields(
        inst,
        state_names=tuple(inst.state_names[t] for t in perm),
        prior=tuple(inst.prior[t] for t in perm),
        sender=rows(inst.sender),
        receiver=rows(inst.receiver),
    )


def _relabel_elements(inst: Instance, sigma: list[int]) -> Instance:
    """Element e of ``inst`` becomes element sigma[e], in the utilities and
    in the constraint."""
    inverse = sorted(range(len(sigma)), key=sigma.__getitem__)

    def rows(util):
        return UtilitySpec.from_linear([[row[inverse[e]] for e in range(len(row))] for row in util.linear])

    constraint = inst.constraint
    if isinstance(constraint, Partition):
        constraint = Partition(tuple(tuple(sorted(sigma[e] for e in block)) for block in constraint.blocks), constraint.caps)
    elif isinstance(constraint, (Graphic, PathGraph)):
        constraint = replace_fields(constraint, edges=tuple(constraint.edges[inverse[e]] for e in range(len(sigma))))
    return replace_fields(
        inst,
        element_names=tuple(inst.element_names[inverse[e]] for e in range(len(sigma))),
        sender=rows(inst.sender),
        receiver=rows(inst.receiver),
        constraint=constraint,
    )


def _split_state(inst: Instance, state: int) -> Instance:
    """``state`` and a new last state, a copy of it, share its prior."""
    half = inst.prior[state] / 2

    def rows(util):
        return UtilitySpec.from_linear([*util.linear, util.linear[state]])

    return replace_fields(
        inst,
        state_names=(*inst.state_names, inst.state_names[state] + "'"),
        prior=tuple(half if t == state else p for t, p in enumerate(inst.prior)) + (half,),
        sender=rows(inst.sender),
        receiver=rows(inst.receiver),
    )


def _zero_element(inst: Instance, rng: random.Random) -> Instance:
    """A new last element, worth 0 to both players in every state: a new
    edge between two vertices of a graph, a new member of a partition
    block, one more element under a uniform matroid."""
    n = inst.num_elements

    def rows(util):
        return UtilitySpec.from_linear([[*row, 0] for row in util.linear])

    constraint = inst.constraint
    if isinstance(constraint, Partition):
        b = rng.randrange(len(constraint.blocks))
        blocks = tuple((*block, n) if k == b else block for k, block in enumerate(constraint.blocks))
        constraint = Partition(blocks, constraint.caps)
    elif isinstance(constraint, Graphic):
        edge = tuple(rng.sample(range(constraint.num_vertices), 2))
        constraint = replace_fields(constraint, edges=(*constraint.edges, edge))
    return replace_fields(
        inst,
        element_names=(*inst.element_names, "zero"),
        sender=rows(inst.sender),
        receiver=rows(inst.receiver),
        constraint=constraint,
    )


def _outcomes(inst: Instance, clean: bool) -> dict:
    """(value, scheme) per engine that takes the instance."""
    results = {"full": persuasion.solve_full(inst), "cce": cce.solve_cce_exact(cce.make_view(inst))}
    if clean:
        results["reduced"] = persuasion.solve_reduced(inst)
    outcomes = {name: (r.sender_value, r.scheme) for name, r in results.items()}
    scheme, value = persuasion.uninformative_scheme(inst)
    outcomes["uninformative"] = (value, scheme)
    return outcomes


def _values(outcomes: dict, c: Fraction = F(1)) -> dict:
    return {name: c * value for name, (value, _) in outcomes.items()}


def _corpus():
    """Clean matroid instances (every engine) and layered paths (all but
    ``reduced``), with mixed denominators."""
    rng = random.Random("metamorphic")
    for kind in ("uniform", "partition", "graphic"):
        for _ in range(6):
            D = rng.randint(2, 3)
            yield rand_clean_instance(rng, D, rng.randint(3, 5), kind, dens=MIXED_DENOMINATORS), True
    for _ in range(6):
        yield rand_instance(rng, rng.randint(2, 3), 6, sense=Sense.MIN, dens=MIXED_DENOMINATORS), False


CORPUS = list(_corpus())


@pytest.mark.parametrize("case", range(len(CORPUS)))
def test_engines_obey_scaling_and_renaming(case):
    inst, clean = CORPUS[case]
    rng = random.Random(f"metamorphic/{case}")
    base = _outcomes(inst, clean)
    c = F(rng.randint(1, 9), rng.randint(2, 9))

    receiver_scaled = _outcomes(replace_fields(inst, receiver=_scaled(inst.receiver, c)), clean)
    assert receiver_scaled == base

    sender_scaled = _outcomes(replace_fields(inst, sender=_scaled(inst.sender, c)), clean)
    assert _values(sender_scaled) == _values(base, c)

    perm = rng.sample(range(inst.num_states), inst.num_states)
    assert _values(_outcomes(_permute_states(inst, perm), clean)) == _values(base)

    sigma = rng.sample(range(inst.num_elements), inst.num_elements)
    assert _values(_outcomes(_relabel_elements(inst, sigma), clean)) == _values(base)


@pytest.mark.parametrize("case", range(len(CORPUS)))
def test_engines_obey_state_splits_and_zero_elements(case):
    inst, clean = CORPUS[case]
    rng = random.Random(f"metamorphic-split/{case}")
    base = _values(_outcomes(inst, clean))

    # Split a state whose halved prior changes the masses' denominator.
    splits = [_split_state(inst, t) for t in range(inst.num_states)]
    split = rng.choice([s for s in splits if s.masses[1] != inst.masses[1]])
    assert _values(_outcomes(split, clean)) == base

    if isinstance(inst.constraint, PathGraph):
        return
    sigma = rng.sample(range(inst.num_elements + 1), inst.num_elements + 1)
    assert _values(_outcomes(_relabel_elements(_zero_element(inst, rng), sigma), clean)) == base


def _one_row(util: UtilitySpec, state: int, f) -> UtilitySpec:
    """``util`` with ``f`` applied to each entry of ``state``'s row."""
    return UtilitySpec.from_linear([[f(v) for v in row] if t == state else row for t, row in enumerate(util.linear)])


def test_nondegeneracy_report_obeys_row_scaling_and_shifts():
    """Utilities from 0, so ties make some reports fail; c is never an integer."""
    rng = random.Random("metamorphic-nondegeneracy")
    reports = []
    for k in range(40):
        D, n = rng.randint(2, 3), rng.randint(3, 6)
        kind = ("uniform", "partition", "graphic")[k % 3]
        inst = rand_instance(rng, D, n, kind, lo=0, hi=2, dens=MIXED_DENOMINATORS)
        base = check_nondegeneracy(inst)
        reports.append(base)
        t = rng.randrange(D)
        c = F(2 * rng.randint(0, 4) + 1, 2 * rng.randint(1, 4))
        shift = F(rng.randint(1, 9), rng.choice(MIXED_DENOMINATORS))
        for variant in (
            replace_fields(inst, receiver=_one_row(inst.receiver, t, lambda v: c * v)),
            replace_fields(inst, receiver=_one_row(inst.receiver, t, lambda v: v + shift)),
            replace_fields(inst, receiver=_scaled(inst.receiver, c), sender=_scaled(inst.sender, c)),
        ):
            assert check_nondegeneracy(variant) == base, k
    assert any(r.clean for r in reports) and any(len(r.violations) > 1 for r in reports)

"""Criteria that FAIL under a mutant of the code they check.

Route R1 and the game oracle read theta, beta and h from one fixed-map
evaluator, ``game._map_coefficients``; route R2 and ``solve_game`` read
the Hamiltonian from ``game._hamiltonian_table``.  A mutant of either one
must make both ``measure-change-consistency`` (R1 against R2) and
``game-value`` (the oracle against ``solve_game``) FAIL, so each shared
evaluator stays checked from the other side of each criterion.

The six criteria that solve their instances in batches FAIL under a
mutant of the sweep they run, so solving a group as one batch has not
blinded them: a representation that drops the mark branches' weights, or
a lower clamp whose push is flipped to push down.  ``monotone-envelope``
compares envelopes of payoffs that differ by constants, which neither
mutant can tell apart (each keeps the sweep shift-equivariant); it FAILs
when the batch's rows are read in the wrong order.

The other three FAIL under a mutant of what they certify: the bracket's
re-solved rows without the parents of the rows below, the upper clamp's
push flipped, and Picard's frozen drift made steeper.  With those, each of
the eleven criteria has a mutant that makes it FAIL.  (Dropping the mark
weights leaves all three passing, so it is no mutant for them.)
"""

import dataclasses

import numpy as np
import pytest

import treebsde.drbsde as drbsde_module
import treebsde.game as game_module
import treebsde.sweep as sweep_module
from treebsde import acceptance


def zero_beta(evaluate):
    """``_map_coefficients`` with the mark tilt beta dropped."""
    def mutant(*args):
        theta, beta, h = evaluate(*args)
        return theta, 0.0 * beta, h
    return mutant


def drop_h(table):
    """``_hamiltonian_table`` without the running payoff h: H(z=0, r=0) = h is subtracted per pair."""
    def mutant(game, t, x, z, r):
        full = table(game, t, x, z, r)
        return full - table(game, t, x, 0.0 * z, 0.0 * r)
    return mutant


MUTANTS = {"zero-beta": ("_map_coefficients", zero_beta), "drop-h": ("_hamiltonian_table", drop_h)}


@pytest.mark.parametrize("criterion", [acceptance.criterion_measure_change, acceptance.criterion_game_value],
                         ids=["measure-change", "game-value"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_game_evaluator_mutant_fails_both_criteria(monkeypatch, mutant, criterion):
    assert criterion().passed
    name, mutate = MUTANTS[mutant]
    monkeypatch.setattr(game_module, name, mutate(getattr(game_module, name)))
    result = criterion()
    assert not result.passed, result.line()


def drop_mark_weight(represent):
    """``represent_layer`` on the tree with its mark branches' weights set to zero."""
    def mutant(tree, child_values, k, rows=None):
        weights = np.array(tree.base_weights)
        weights[..., 2:] = 0.0
        return represent(dataclasses.replace(tree, base_weights=weights), child_values, k, rows)
    return mutant


def flip_lower_push(clamp_steps):
    """``_clamp_steps`` whose lower clamp pushes the value down by its overshoot instead of up to the barrier."""
    def mutant(y, lo, up, k, flagged=False):
        yl, _ = clamp_steps(y, lo, None, k, flagged)
        yl = y - (yl - y)
        return yl, np.minimum(up, yl) if up is not None else yl
    return mutant


def reversed_rows(stack):
    """``acceptance._stack`` with the instances stacked in reverse order."""
    return lambda instances: stack(list(instances)[::-1])


BATCH_MUTANTS = {
    "drop-mark-weight": (sweep_module, "represent_layer", drop_mark_weight),
    "flip-lower-push": (sweep_module, "_clamp_steps", flip_lower_push),
    "reversed-rows": (acceptance, "_stack", reversed_rows),
}


@pytest.mark.parametrize("criterion, mutant", [
    (acceptance.criterion_snell_oracle, "drop-mark-weight"),
    (acceptance.criterion_snell_oracle, "flip-lower-push"),
    (acceptance.criterion_dynkin_oracle, "drop-mark-weight"),
    (acceptance.criterion_dynkin_oracle, "flip-lower-push"),
    (acceptance.criterion_jump_decomposition, "flip-lower-push"),
    (acceptance.criterion_skorokhod, "flip-lower-push"),
    (acceptance.criterion_certificate, "drop-mark-weight"),
    (acceptance.criterion_certificate, "flip-lower-push"),
    (acceptance.criterion_monotone_envelope, "reversed-rows"),
], ids=lambda x: x if isinstance(x, str) else x.__name__.removeprefix("criterion_"))
def test_a_batched_criterion_fails_a_mutant_of_what_it_checks(monkeypatch, criterion, mutant):
    assert criterion().passed
    owner, name, mutate = BATCH_MUTANTS[mutant]
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    result = criterion()
    assert not result.passed, result.line()


def drop_parents(dependent_rows):
    """``_dependent_rows`` on a tree whose nodes have no parents: D(k) is where the penalty binds at layer k only."""
    def mutant(problem, side, Y):
        orphans = dataclasses.replace(problem.tree)
        orphans.parents = lambda rows: rows[:0]
        return dependent_rows(dataclasses.replace(problem, tree=orphans), side, Y)
    return mutant


def flip_upper_push(clamp_steps):
    """``_clamp_steps`` whose upper clamp pushes the value up by its overshoot instead of down to the barrier."""
    def mutant(y, lo, up, k, flagged=False):
        yl, out = clamp_steps(y, lo, up, k, flagged)
        return yl, yl + (yl - out)
    return mutant


def steeper_drift(evaluate):
    """Picard's ``evaluate_generator`` scaled by 1.6, so the frozen drift is 1.6 times as steep in y.

    At 2.0 the iteration stops contracting and raises NotConverged, so the
    criterion would raise instead of FAIL.
    """
    return lambda *args: 1.6 * evaluate(*args)


@pytest.mark.parametrize("criterion, owner, name, mutate", [
    (acceptance.criterion_penalization_bracket, drbsde_module, "_dependent_rows", drop_parents),
    (acceptance.criterion_comparison, sweep_module, "_clamp_steps", flip_upper_push),
    (acceptance.criterion_picard, drbsde_module, "evaluate_generator", steeper_drift),
], ids=["penalization-bracket", "comparison-theorem", "picard-contraction"])
def test_a_one_instance_criterion_fails_a_mutant_of_what_it_certifies(monkeypatch, criterion, owner, name, mutate):
    assert criterion().passed
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    result = criterion()
    assert not result.passed, result.line()

"""The two game criteria fail a mutant of either side of the change of measure.

Route R1 and the game oracle read theta, beta and h from one fixed-map
evaluator, ``game._map_coefficients``; route R2 and ``solve_game`` read
the Hamiltonian from ``game._hamiltonian_table``.  A mutant of either one
must make both ``measure-change-consistency`` (R1 against R2) and
``game-value`` (the oracle against ``solve_game``) FAIL, so each shared
evaluator stays checked from the other side of each criterion.
"""

import pytest

import treebsde.game as game_module
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

"""The oracle criteria fail a solver that returns NaN, wherever the NaN falls among their differences.

Each test patches a solver name that ``acceptance`` binds at import so that
it returns NaN at some nodes of one layer.  A running maximum built on
Python's ``max`` drops such a NaN (``nan > x`` is false) and passed it.
"""

import dataclasses

import numpy as np

from treebsde import AdaptedValues, acceptance


def nan_at_layer(values: AdaptedValues, k: int) -> AdaptedValues:
    """A copy of ``values`` with NaN at the first node of layer k."""
    layers = [np.array(x, dtype=float) for x in values.layers]
    layers[k][0] = np.nan
    return AdaptedValues(layers, values.first_layer)


def assert_fails_on_nan(criterion):
    result = criterion()
    assert not result.passed, result.line()
    assert "nan" in result.detail, result.detail


def test_snell_oracle_fails_a_nan_envelope_layer(monkeypatch):
    run = acceptance.snell_envelope
    monkeypatch.setattr(acceptance, "snell_envelope", lambda *args: nan_at_layer(run(*args), 1))
    assert_fails_on_nan(acceptance.criterion_snell_oracle)


def test_dynkin_oracle_fails_a_nan_root(monkeypatch):
    run = acceptance.backward_clamped_solve

    def solve(*args, **kw):
        sol = run(*args, **kw)
        return dataclasses.replace(sol, Y=nan_at_layer(sol.Y, 0))

    monkeypatch.setattr(acceptance, "backward_clamped_solve", solve)
    assert_fails_on_nan(acceptance.criterion_dynkin_oracle)


def test_game_value_fails_a_nan_spread(monkeypatch):
    # only the first saddle instance returns NaN: the gap instance at the end
    # would fail its own bracket check on a NaN root anyway
    run, calls = acceptance.solve_game, []

    def solve(game):
        res = run(game)
        calls.append(game)
        return dataclasses.replace(res, Y=nan_at_layer(res.Y, 0)) if len(calls) == 1 else res

    monkeypatch.setattr(acceptance, "solve_game", solve)
    assert_fails_on_nan(acceptance.criterion_game_value)


def test_measure_change_fails_a_nan_route_layer(monkeypatch):
    run = acceptance.dynkin_value

    def routes(*args, **kw):
        r1, r2 = run(*args, **kw)
        return r1, nan_at_layer(r2, 1)

    monkeypatch.setattr(acceptance, "dynkin_value", routes)
    assert_fails_on_nan(acceptance.criterion_measure_change)

"""The verify criteria's one runner: its clock, its budgets and the result it builds."""

import math
from types import SimpleNamespace

import pytest

from treebsde import acceptance


def run_with_clock(monkeypatch, criterion, elapsed):
    """Run a criterion on a clock that reads 0 at its start and ``elapsed`` at its end."""
    clock = iter([0.0, elapsed])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    return criterion()


@pytest.mark.parametrize("criterion,budget", [
    (acceptance.criterion_snell_oracle, 10.0),
    (acceptance.criterion_dynkin_oracle, 60.0),
    (acceptance.criterion_game_value, 300.0),
], ids=["snell-oracle", "dynkin-oracle", "game-value"])
def test_a_criterion_that_takes_its_budget_fails(monkeypatch, criterion, budget):
    under = run_with_clock(monkeypatch, criterion, math.nextafter(budget, 0.0))
    over = run_with_clock(monkeypatch, criterion, budget)
    assert under.passed and not over.passed
    assert (over.name, over.detail, over.seconds) == (under.name, under.detail, budget)


def test_a_criterion_without_a_budget_passes_however_long_it_takes(monkeypatch):
    result = run_with_clock(monkeypatch, acceptance.criterion_comparison, 1e12)
    assert result.passed and result.seconds == 1e12
    assert result.line() == "PASS comparison-theorem: 20 pairs, exact domination [1000000000000.00s]"

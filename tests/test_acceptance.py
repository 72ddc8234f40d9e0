"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear; the CLI equivalent is ``coarse-lab selftest``.
"""

from fractions import Fraction

import pytest

from coarse_lab import acceptance
from coarse_lab.acceptance import CRITERIA
from coarse_lab.tiling import tile_sparse_subset

_ctx: dict = {}


def _run(number):
    result = CRITERIA[number](_ctx)
    print(result.line())
    for note in result.details:
        print("    " + note)
    assert result.passed, "; ".join(result.failures)


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    _run(number)


def test_criterion_7_alone_runs_criteria_1_to_4_first(monkeypatch):
    # with no tilings in its context, criterion 7 runs criteria 1-4 to build
    # them; cheap stand-ins record the calls and leave one chopped tiling
    ran = []

    def stand_in(n):
        def criterion(ctx):
            ran.append(n)
            if n == 2:
                ctx["tilings_2"] = [tile_sparse_subset([*range(40), *range(50, 90)], 1, Fraction(1, 2))]

        return criterion

    for n in (1, 2, 3, 4):
        monkeypatch.setattr(acceptance, f"criterion_{n}", stand_in(n))
    result = acceptance.criterion_7({})
    assert ran == [1, 2, 3, 4]
    assert result.passed, result.failures
    assert result.details == ["1 tilings: invariance defect equals max tile ratio exactly"]

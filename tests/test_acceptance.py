"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear; the CLI equivalent is ``coarse-lab selftest``.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from coarse_lab import acceptance, monoid
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
    # them; cheap stand-ins record the calls and leave one chopped tiling.
    # Each stand-in moves the criteria's clock on by 100 s, and criterion 7
    # times only its tie-back
    ran = []
    clock = [0.0]

    def perf_counter():
        clock[0] += 0.001
        return clock[0]

    def stand_in(n):
        def criterion(ctx):
            ran.append(n)
            clock[0] += 100
            if n == 2:
                ctx["tilings_2"] = [tile_sparse_subset([*range(40), *range(50, 90)], 1, Fraction(1, 2))]

        return criterion

    for n in (1, 2, 3, 4):
        monkeypatch.setattr(acceptance, f"criterion_{n}", stand_in(n))
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=perf_counter))
    result = acceptance.criterion_7({})
    assert ran == [1, 2, 3, 4]
    assert result.passed, result.failures
    assert 0 < result.elapsed < 1
    assert result.details == ["1 tilings: invariance defect equals max tile ratio exactly"]


def test_criterion_7_fails_when_criteria_1_to_4_build_no_tiling(monkeypatch):
    for n in (1, 2, 3, 4):
        monkeypatch.setattr(acceptance, f"criterion_{n}", lambda ctx: None)
    assert acceptance.criterion_7({}).failures == ["no tilings to tie back"]


def test_criterion_8_replays_the_cancellative_yes(monkeypatch):
    # a Yes for a = 0 in the idempotent monoid's hull whose certificate does not replay
    real = acceptance.cancellative_equal

    def wrong(p, u, v):
        got = real(p, u, v)
        return monoid.Verdict(monoid.YES, got.detail, monoid.Rewrite((0,), ())) if u == (1,) else got

    monkeypatch.setattr(acceptance, "cancellative_equal", wrong)
    failures = acceptance.criterion_8({}).failures
    assert [f.partition(":")[0] for f in failures] == ["a = 0 does not replay"]

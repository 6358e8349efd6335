"""Frozen golden outputs: detections, BP traces and sweeps, byte for byte.

The parity reference for every belief-propagation caller.  Each test
recomputes one document of ``tests/goldens/`` with the current code
and compares its canonical JSON text against the recorded file, so a
reordered detection, a changed tie-break or a last-bit score drift
fails here even when the shape checks of the evaluation tests (TDR
bounds, nesting) still pass.  See ``tests/goldens/record.py`` for what
each golden covers and how to re-record one.
"""

from __future__ import annotations

import pytest

from goldens.record import (
    dns_routine,
    enterprise_routine,
    enterprise_sweeps,
    golden_path,
    lanl_solve_all,
    render,
)


def _assert_golden(name: str, document) -> None:
    expected = golden_path(name).read_text()
    assert render(document) == expected, (
        f"{name} drifted from tests/goldens/{name}.json"
    )


@pytest.mark.parity
def test_dns_routine_golden():
    _assert_golden("dns_routine", dns_routine())


@pytest.mark.parity
def test_enterprise_routine_golden():
    _assert_golden("enterprise_routine", enterprise_routine())


@pytest.mark.parity
def test_lanl_solve_all_golden():
    # A fresh world, not the shared ``lanl_dataset`` fixture: the LANL
    # dataset realizes each day's record noise from one shared RNG
    # stream on first read, so a fixture another test has already read
    # out of order yields a different (equally valid) challenge.
    _assert_golden("lanl_solve_all", lanl_solve_all())


@pytest.mark.parity
def test_enterprise_sweeps_golden(enterprise_dataset):
    _assert_golden("enterprise_sweeps", enterprise_sweeps(enterprise_dataset))

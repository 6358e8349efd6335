"""Shared fixtures.

Dataset-generation and pipeline-training fixtures are session-scoped:
the synthetic worlds are deterministic functions of their seeds, so
sharing them across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.synthetic import generate_enterprise_dataset, generate_lanl_dataset
from repro.testing import SMALL_ENTERPRISE, SMALL_LANL


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "parity: equivalence tests pinning the columnar/vectorized "
        "paths to their references -- the per-domain scorers "
        "(AdditiveSimilarityScorer.score, RegressionSimilarityScorer."
        "score, AutomationDetector.test_series) and the frozen outputs "
        "in tests/goldens/.  Run the whole group with `pytest -m parity` "
        "before touching a scoring or ingest path.",
    )


@pytest.fixture(scope="session")
def lanl_dataset():
    return generate_lanl_dataset(SMALL_LANL)


@pytest.fixture(scope="session")
def enterprise_dataset():
    return generate_enterprise_dataset(SMALL_ENTERPRISE)


@pytest.fixture(scope="session")
def enterprise_evaluation(enterprise_dataset):
    from repro.eval import EnterpriseEvaluation

    return EnterpriseEvaluation(enterprise_dataset)


@pytest.fixture(scope="session")
def lanl_report(lanl_dataset):
    from repro.eval import LanlChallengeSolver

    return LanlChallengeSolver(lanl_dataset).solve_all()

"""Shared dataset configurations and reference helpers for tests and
benchmarks.

The synthetic worlds are deterministic functions of their seeds, so a
single small configuration can be shared across the whole test suite
(and regenerated identically anywhere else).  Keeping these in an
importable module -- rather than in a ``conftest.py`` -- avoids the
classic pytest pitfall where ``from conftest import ...`` resolves to
whichever conftest happens to be first on ``sys.path``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence, Set

from .synthetic import (
    EnterpriseDatasetConfig,
    FleetDataset,
    FleetScenarioConfig,
    LanlConfig,
    generate_fleet_dataset,
)

#: Enterprise tenant template for mixed-pipeline fleet scenarios:
#: small, but rich enough to train both regression models.
SMALL_FLEET_ENTERPRISE_TENANT = EnterpriseDatasetConfig(
    seed=2014,  # replaced per tenant by the fleet generator
    n_hosts=50,
    bootstrap_days=9,
    operation_days=6,
    quiet_days=3,
    popular_domains=60,
    churn_domains_per_day=12,
    n_campaigns=20,
)

#: Small but fully featured LANL world used across the suite.
SMALL_LANL = LanlConfig(
    seed=42,
    n_hosts=60,
    bootstrap_days=3,
    popular_domains=40,
    churn_domains_per_day=8,
    browsing_visits_per_host=8,
)

#: Small enterprise world with enough campaigns to train both models.
SMALL_ENTERPRISE = EnterpriseDatasetConfig(
    seed=2014,
    n_hosts=60,
    bootstrap_days=9,
    operation_days=7,
    quiet_days=3,
    popular_domains=60,
    churn_domains_per_day=12,
    n_campaigns=20,
)

#: Per-tenant world template for small fleet scenarios.
SMALL_FLEET_TENANT = LanlConfig(
    seed=42,  # replaced per tenant by the fleet generator
    n_hosts=40,
    bootstrap_days=2,
    popular_domains=30,
    churn_domains_per_day=6,
    browsing_visits_per_host=6,
)


def make_multi_enterprise_dataset(
    n_tenants: int = 3,
    *,
    seed: int = 42,
    lead_hosts: int = 2,
    follower_hosts: int = 1,
    vt_coverage: float = 0.8,
    enterprise_tenants: int = 0,
    ct_sibling_domains: int = 0,
) -> FleetDataset:
    """Small N-tenant world with a shared attack campaign, in one call.

    The lead tenant is hit on 3/02 with enough hosts for the multi-host
    C&C heuristic; followers are hit on 3/03 with ``follower_hosts``
    hosts (one, by default, so only cross-tenant prior seeding can
    catch the campaign there).  With ``enterprise_tenants`` set, the
    trailing followers are enterprise (proxy-path) worlds -- the
    mixed-pipeline scenario.  Tests and benchmarks share this so a
    fleet dataset is a deterministic function of its arguments.
    """
    return generate_fleet_dataset(FleetScenarioConfig(
        seed=seed,
        n_tenants=n_tenants,
        tenant=SMALL_FLEET_TENANT,
        enterprise_tenants=enterprise_tenants,
        enterprise_tenant=SMALL_FLEET_ENTERPRISE_TENANT,
        lead_hosts=lead_hosts,
        follower_hosts=follower_hosts,
        vt_coverage=vt_coverage,
        ct_sibling_domains=ct_sibling_domains,
    ))


def per_domain_frontier(
    score: Callable[[str, Set[str]], float],
) -> Callable[[Sequence[str], Set[str]], dict[str, float]]:
    """A :data:`~repro.core.beliefprop.ScoreFrontier` hook that scores
    each frontier domain with ``score(domain, malicious)``.

    The reference form of ``Compute_SimScore``: tests and benchmarks
    wrap the per-domain scorers
    (:meth:`~repro.core.scoring.AdditiveSimilarityScorer.score`,
    :meth:`~repro.core.scoring.RegressionSimilarityScorer.score`) with
    it to check the incremental frontier scorers against them.  The
    hook accumulates the ``new_malicious`` deltas it is handed -- the
    first call receives the full initial set -- so every domain is
    scored against the run's whole malicious set.  Like the
    incremental scorers it is stateful: use one per belief-propagation
    run.
    """
    malicious: set[str] = set()

    def score_frontier(
        frontier: Sequence[str], new_malicious: Set[str]
    ) -> dict[str, float]:
        malicious.update(new_malicious)
        return {domain: score(domain, malicious) for domain in frontier}

    return score_frontier

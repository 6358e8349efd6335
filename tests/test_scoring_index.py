"""Parity tests for the scoring index and incremental frontier scorers.

The incremental/batched scorers must produce *identical*
``BeliefPropagationResult`` detections, ordering and traces as the
per-domain reference scorers (``AdditiveSimilarityScorer.score``,
``RegressionSimilarityScorer.score``, wrapped as frontier hooks by
:func:`repro.testing.per_domain_frontier`) -- not approximately equal
scores.  These tests assert exactly that over randomized multi-day
traffic (``random.Random(seed)`` loops standing in for hypothesis),
including warm-start (``prior=``) rounds and the WHOIS-imputation
state the enterprise path threads through scoring.  The daily
routines have one scoring path; their tests swap the reference scorer
in for the production one.  ``tests/test_goldens.py`` pins the same
routines' outputs to frozen files.
"""

from __future__ import annotations

import random

import pytest

import numpy as np

from goldens.worlds import (
    aggregate,
    commit,
    enterprise_scorers,
    linear_model,
    random_day_connections,
    random_whois,
)
from repro import runner
from repro.config import LANL_CONFIG, SystemConfig
from repro.core import pipeline
from repro.core.beliefprop import belief_propagation
from repro.core.pipeline import detect_on_enterprise_traffic
from repro.core.scoring import (
    AdditiveSimilarityScorer,
    BatchedSimilarityScorer,
    IncrementalAdditiveScorer,
    RegressionSimilarityScorer,
    group_verdicts_by_domain,
    multi_host_beacon_heuristic,
)
from repro.features.extract import SIMILARITY_FEATURE_NAMES, FeatureExtractor
from repro.profiling.history import DestinationHistory
from repro.profiling.rare import DailyTraffic, extract_rare_domains
from repro.runner import detect_on_traffic
from repro.testing import per_domain_frontier
from repro.timing.detector import AutomationDetector


class _PerDomainAdditive:
    """Reference stand-in for :class:`IncrementalAdditiveScorer`."""

    def __init__(self, base, traffic, *, index=None):
        self.score_frontier = per_domain_frontier(
            lambda domain, malicious: base.score(domain, malicious, traffic)
        )


class _PerDomainRegression:
    """Reference stand-in for :class:`BatchedSimilarityScorer`."""

    def __init__(self, scorer, traffic, when, *, index=None):
        self.score_frontier = per_domain_frontier(
            lambda domain, malicious: scorer.score(
                domain, malicious, traffic, when
            )
        )


def _assert_same_bp(left, right) -> None:
    """Both belief-propagation results byte-identical, trace included."""
    if left is None or right is None:
        assert left is None and right is None
        return
    assert left.hosts == right.hosts
    assert left.domains == right.domains
    assert left.detections == right.detections
    assert left.trace == right.trace


# ---------------------------------------------------------------------------
# DNS / additive path
# ---------------------------------------------------------------------------

@pytest.mark.parity
def test_detect_on_traffic_index_parity_multiday(monkeypatch):
    """Indexed scoring equals the per-domain reference on random
    multi-day runs."""
    for seed in range(12):
        rng = random.Random(1000 + seed)
        history = DestinationHistory()
        automation = AutomationDetector(LANL_CONFIG.histogram)
        scorer = AdditiveSimilarityScorer()
        for day in range(3):
            connections = random_day_connections(rng, day, with_http=False)
            traffic, rare = aggregate(day, connections, history)
            hint_hosts = (
                sorted(traffic.domains_by_host)[:2]
                if rng.random() < 0.3 else ()
            )
            intel = (
                frozenset(rng.sample(sorted(rare), min(2, len(rare))))
                if rare and rng.random() < 0.3 else frozenset()
            )
            fast = detect_on_traffic(
                traffic, rare, automation=automation, scorer=scorer,
                config=LANL_CONFIG, hint_hosts=hint_hosts,
                intel_domains=intel,
            )
            with monkeypatch.context() as patch:
                patch.setattr(
                    runner, "IncrementalAdditiveScorer", _PerDomainAdditive
                )
                slow = detect_on_traffic(
                    traffic, rare, automation=automation, scorer=scorer,
                    config=LANL_CONFIG, hint_hosts=hint_hosts,
                    intel_domains=intel,
                )
            assert fast.cc_domains == slow.cc_domains
            assert fast.detected == slow.detected
            assert fast.intel_seeded == slow.intel_seeded
            _assert_same_bp(fast.bp_result, slow.bp_result)
            commit(traffic, history)


@pytest.mark.parity
def test_belief_propagation_warm_start_parity():
    """Incremental scoring matches the per-domain reference under
    ``prior=`` warm starts."""
    for seed in range(8):
        rng = random.Random(7000 + seed)
        history = DestinationHistory()
        scorer = AdditiveSimilarityScorer()
        connections = random_day_connections(rng, 0, with_http=False)
        # Round 1 on a prefix of the day, round 2 on the full day with
        # round 1's beliefs as the prior -- the streaming cadence.
        split = len(connections) * 2 // 3
        results = {}
        for label, batch_sizes in (("prefix", [split]),
                                   ("full", [split, len(connections)])):
            traffic = DailyTraffic(0)
            traffic.ingest(connections[:batch_sizes[-1]])
            traffic.finalize()
            rare = extract_rare_domains(traffic, history,
                                        unpopular_max_hosts=10)
            seeds = {d for d in sorted(rare) if d.startswith("cc")}
            seed_hosts: set[str] = set()
            for domain in seeds:
                seed_hosts.update(traffic.hosts_by_domain.get(domain, ()))
            if not seed_hosts:
                seed_hosts = set(sorted(traffic.domains_by_host)[:1])
            legacy_prior = results.get("prefix-legacy")
            fast_prior = results.get("prefix-fast")
            dom_host, host_rdom = traffic.bp_views(rare)
            common = dict(
                dom_host=dom_host,
                host_rdom=host_rdom,
                detect_cc=lambda dom: dom in seeds,
                config=LANL_CONFIG.belief_propagation,
            )
            legacy = belief_propagation(
                seed_hosts, seeds,
                score_frontier=per_domain_frontier(
                    lambda d, mal: scorer.score(d, mal, traffic)
                ),
                prior=legacy_prior if label == "full" else None,
                **common,
            )
            incremental = IncrementalAdditiveScorer(scorer, traffic)
            fast = belief_propagation(
                seed_hosts, seeds,
                score_frontier=incremental.score_frontier,
                prior=fast_prior if label == "full" else None,
                **common,
            )
            _assert_same_bp(fast, legacy)
            results[f"{label}-legacy"] = legacy
            results[f"{label}-fast"] = fast


# ---------------------------------------------------------------------------
# Enterprise / regression path
# ---------------------------------------------------------------------------

@pytest.mark.parity
def test_detect_on_enterprise_traffic_index_parity(monkeypatch):
    """Batched regression scoring equals the per-domain reference,
    including the WHOIS imputation state it leaves behind."""
    config = SystemConfig().with_thresholds(similarity=0.3, cc_score=0.25)
    for seed in range(10):
        rng = random.Random(3000 + seed)
        history = DestinationHistory()
        for day in range(2):
            connections = random_day_connections(rng, day, with_http=True)
            whois_db = random_whois(rng, connections) if day % 2 else None
            traffic, rare = aggregate(day, connections, history)
            soc = (
                sorted(rare)[:2] if rare and rng.random() < 0.5 else ()
            )
            intel = (
                frozenset(rng.sample(sorted(rare), 1))
                if rare and rng.random() < 0.3 else frozenset()
            )
            runs = {}
            for reference in (False, True):
                cc_scorer, sim_scorer = enterprise_scorers(whois_db)
                with monkeypatch.context() as patch:
                    if reference:
                        patch.setattr(
                            pipeline, "BatchedSimilarityScorer",
                            _PerDomainRegression,
                        )
                    result = detect_on_enterprise_traffic(
                        traffic, rare,
                        day=day,
                        automation=AutomationDetector(config.histogram),
                        cc_scorer=cc_scorer,
                        similarity_scorer=sim_scorer,
                        config=config,
                        soc_seed_domains=soc,
                        intel_domains=intel,
                    )
                whois = sim_scorer.extractor.whois
                runs[reference] = (
                    result,
                    None if whois is None else (
                        whois._age_sum, whois._validity_sum, whois._observed
                    ),
                )
            fast, fast_whois = runs[False]
            slow, slow_whois = runs[True]
            assert fast.cc_domains == slow.cc_domains
            assert fast.intel_seeded == slow.intel_seeded
            _assert_same_bp(fast.no_hint, slow.no_hint)
            _assert_same_bp(fast.soc_hints, slow.soc_hints)
            assert fast.all_detected_domains() == slow.all_detected_domains()
            assert fast_whois == slow_whois
            commit(traffic, history)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

@pytest.mark.parity
def test_traffic_index_incremental_matches_rebuild():
    """An index maintained per micro-batch equals one built at the end."""
    for seed in range(6):
        rng = random.Random(500 + seed)
        connections = random_day_connections(rng, 0, with_http=False)
        live = DailyTraffic(0)
        live.index()  # armed before any traffic, like the aggregator
        for start in range(0, len(connections), 17):
            live.ingest(connections[start:start + 17])
        bulk = DailyTraffic(0)
        bulk.ingest(connections)
        left, right = live.index(), bulk.index()
        bulk.finalize()
        domains = sorted(live.hosts_by_domain)
        assert domains == sorted(bulk.hosts_by_domain)
        for domain in domains:
            l_id, r_id = left.domain_id(domain), right.domain_id(domain)
            assert left.host_count(l_id) == right.host_count(r_id)
            assert left.keys24(l_id) == right.keys24(r_id)
            assert left.keys16(l_id) == right.keys16(r_id)
            # Interning order differs between the two, so compare the
            # (host name -> first contact) rows, not raw ids.
            l_pairs = {
                left._host_names[h]: t for h, t in zip(
                    left.hosts_of(l_id), left.first_contacts_of(l_id)
                )
            }
            r_pairs = {
                right._host_names[h]: t for h, t in zip(
                    right.hosts_of(r_id), right.first_contacts_of(r_id)
                )
            }
            assert l_pairs == r_pairs
            for host in bulk.hosts_by_domain[domain]:
                assert l_pairs[host] == bulk.first_contact(host, domain)


def _reference_host_rdom(traffic, rare) -> dict[str, set[str]]:
    """Algorithm 1's ``host_rdom`` map built eagerly: host -> rare
    domains visited."""
    by_host: dict[str, set[str]] = {}
    for domain in rare:
        for host in traffic.hosts_by_domain.get(domain, ()):
            by_host.setdefault(host, set()).add(domain)
    return by_host


@pytest.mark.parity
def test_bp_views_match_legacy_maps():
    """Lazy dom_host / host_rdom views equal the eagerly built maps."""
    rng = random.Random(99)
    connections = random_day_connections(rng, 0, with_http=False)
    history = DestinationHistory()
    traffic, rare = aggregate(0, connections, history)
    dom_host, host_rdom = traffic.bp_views(rare)
    legacy_dom_host = {
        d: frozenset(traffic.hosts_by_domain.get(d, ())) for d in rare
    }
    for domain in set(legacy_dom_host) | set(traffic.hosts_by_domain):
        assert set(dom_host.get(domain, ())) == set(
            legacy_dom_host.get(domain, ())
        )
    legacy_host_rdom = _reference_host_rdom(traffic, rare)
    for host in traffic.domains_by_host:
        assert set(host_rdom.get(host, ())) == set(
            legacy_host_rdom.get(host, ())
        )
    # Memoized reads are stable.
    for host in traffic.domains_by_host:
        assert host_rdom[host] is host_rdom[host]


@pytest.mark.parity
def test_grouped_beacon_heuristic_matches_full_scan():
    """Per-domain verdict slices give the same C&C set as rescanning
    the full verdict list for every domain."""
    for seed in range(6):
        rng = random.Random(42 + seed)
        history = DestinationHistory()
        connections = random_day_connections(rng, 0, with_http=False)
        traffic, rare = aggregate(0, connections, history)
        automation = AutomationDetector(LANL_CONFIG.histogram)
        verdicts = automation.automated_pairs(traffic.rare_series(rare))
        grouped = group_verdicts_by_domain(verdicts)
        fast = {
            domain for domain, slice_ in grouped.items()
            if multi_host_beacon_heuristic(domain, slice_, traffic)
        }
        slow = {
            domain for domain in {v.domain for v in verdicts}
            if multi_host_beacon_heuristic(domain, verdicts, traffic)
        }
        assert fast == slow


@pytest.mark.parity
def test_score_and_score_many_bitwise_equal():
    """The serial and batched linear scorers are bit-identical -- the
    contract the batched frontier scorer's parity rests on."""
    rng = random.Random(17)
    model = linear_model(
        SIMILARITY_FEATURE_NAMES,
        [rng.uniform(-1, 1) for _ in SIMILARITY_FEATURE_NAMES],
        rng.uniform(-0.5, 0.5),
    )
    matrix = np.array([
        [rng.random() for _ in SIMILARITY_FEATURE_NAMES]
        for _ in range(64)
    ])
    batched = model.score_many(matrix)
    for row, batch_score in zip(matrix, batched):
        assert model.score(tuple(row)) == float(batch_score)


def test_batched_scorer_rejects_mismatched_model():
    """Feature-name drift between model and batcher fails fast."""
    model = linear_model(("a", "b"), [0.1, 0.2], 0.0)
    scorer = RegressionSimilarityScorer(model, FeatureExtractor())
    traffic = DailyTraffic(0)
    try:
        BatchedSimilarityScorer(scorer, traffic, 86_400.0)
    except ValueError as err:
        assert "feature" in str(err)
    else:  # pragma: no cover - the assertion is the exception
        raise AssertionError("expected ValueError")


@pytest.mark.parity
def test_incremental_scorer_matches_additive_componentwise():
    """Spot-check raw scores (not just detections) against the legacy
    additive scorer under a growing malicious set."""
    for seed in range(6):
        rng = random.Random(2024 + seed)
        history = DestinationHistory()
        connections = random_day_connections(rng, 0, with_http=False)
        traffic, rare = aggregate(0, connections, history)
        if len(rare) < 4:
            continue
        ordered = sorted(rare)
        malicious_steps = [
            set(ordered[:1]), set(ordered[:2]), set(ordered[:3]),
        ]
        scorer = AdditiveSimilarityScorer()
        incremental = IncrementalAdditiveScorer(scorer, traffic)
        reported: set[str] = set()
        for malicious in malicious_steps:
            frontier = [d for d in ordered if d not in malicious]
            delta = malicious - reported
            fast = incremental.score_frontier(frontier, delta)
            reported |= delta
            for domain in frontier:
                expected = scorer.score(domain, malicious, traffic)
                assert fast[domain] == expected, (
                    f"seed {seed}: {domain} {fast[domain]} != {expected}"
                )

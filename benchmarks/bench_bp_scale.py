"""Belief-propagation scoring at scale: per-domain vs incremental frontier.

Not a paper figure -- this bench characterizes the scoring hot path.
The per-domain reference scorers rescore every frontier domain against
the *entire* malicious set each iteration
(O(iterations x frontier x malicious) pure-Python loops; the "legacy"
arm, wrapped as a frontier hook by
:func:`repro.testing.per_domain_frontier`); the
:class:`~repro.profiling.index.TrafficIndex`-backed incremental
scorers that production runs fold in only the newly labeled delta per
iteration.  The two arms must agree byte-for-byte on detections, so
each measured pair is also a parity assertion.

The synthetic world is a labeling *chain*: a seed C&C domain, ``M``
chain domains each pulled in one belief-propagation iteration via a
timing + /24 similarity hit, and ``F`` background frontier domains
that score below threshold but must be rescanned every iteration --
the adversarial shape for the legacy loop.  Sweeping (F, M) sweeps
frontier x malicious-set size.

Results go to ``benchmarks/out/bp_scale.json`` (plus the rendered
table); ``BP_SCALE_SMOKE=1`` runs only the small configuration (CI).
The acceptance gate: the largest configuration must show >= 5x speedup
with ``detect_parity: true``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from conftest import OUT_DIR, save_output

from repro.config import BeliefPropagationConfig
from repro.core.beliefprop import belief_propagation
from repro.core.scoring import (
    AdditiveSimilarityScorer,
    BatchedSimilarityScorer,
    IncrementalAdditiveScorer,
    RegressionSimilarityScorer,
)
from repro.eval import render_table
from repro.features.extract import SIMILARITY_FEATURE_NAMES, FeatureExtractor
from repro.features.regression import LinearModel
from repro.logs.records import Connection
from repro.profiling.rare import DailyTraffic
from repro.testing import per_domain_frontier

SMOKE = bool(os.environ.get("BP_SCALE_SMOKE"))

#: (name, background frontier size, chain length).
CONFIGS = (
    ("small", 300, 10),
    ("medium", 1000, 20),
    ("large", 2500, 40),
)
WHEN = 86_400.0


def build_chain_world(frontier: int, chain: int):
    """One day of traffic forming an F-background, M-chain BP run.

    ``hub`` contacts the seed domain and every background domain (so
    the whole frontier is reachable from iteration 1); chain host ``i``
    contacts chain domains ``i`` and ``i+1`` thirty seconds apart, and
    all chain domains resolve into one /24 -- each iteration labels
    exactly the next chain domain while every background domain is
    rescored and rejected.
    """
    connections: list[Connection] = []
    chain_names = [f"chain{i:04d}.evil" for i in range(chain + 1)]
    for i, name in enumerate(chain_names):
        t = 1000.0 + i * 30.0
        ip = f"10.20.30.{(i % 250) + 1}"
        if i > 0:
            connections.append(Connection(t, f"chainhost{i - 1:04d}", name, ip))
        if i < chain:
            connections.append(Connection(t, f"chainhost{i:04d}", name, ip))
    connections.append(Connection(1000.0, "hub", chain_names[0], "10.20.30.1"))

    background_names = [f"bg{i:05d}.example" for i in range(frontier)]
    for i, name in enumerate(background_names):
        t = 50_000.0 + i * 1.5
        ip = f"198.{(i % 200) + 1}.{(i * 7) % 250}.9"
        connections.append(Connection(t, "hub", name, ip))
        connections.append(Connection(t + 40.0, f"bghost{i % 97:03d}", name, ip))

    traffic = DailyTraffic(0)
    traffic.ingest(connections)
    traffic.finalize()
    rare = set(chain_names) | set(background_names)
    seed_domains = {chain_names[0]}
    seed_hosts = set(traffic.hosts_by_domain[chain_names[0]])
    return traffic, rare, seed_hosts, seed_domains


def _sim_model() -> LinearModel:
    """Hand-built similarity model: timing + /24 hits clear Ts, the
    background's connectivity-only rows do not."""
    return LinearModel(
        feature_names=SIMILARITY_FEATURE_NAMES,
        intercept=0.03,
        weights=np.array([0.25, 0.5, 0.3, 0.1, 0.08, 0.04, -0.15, -0.08]),
        coefficients=(),
        r_squared=0.0,
        n_samples=10,
    )


def _run(seed_hosts, seed_domains, config, dom_host, host_rdom,
         score_frontier):
    start = time.perf_counter()
    result = belief_propagation(
        seed_hosts,
        seed_domains,
        dom_host=dom_host,
        host_rdom=host_rdom,
        detect_cc=lambda dom: False,
        score_frontier=score_frontier,
        config=config,
    )
    elapsed = time.perf_counter() - start
    return elapsed, result


def test_bp_scale():
    configs = CONFIGS[:1] if SMOKE else CONFIGS
    rows = []
    results = []
    all_match = True
    for name, frontier, chain in configs:
        traffic, rare, seed_hosts, seed_domains = build_chain_world(
            frontier, chain
        )
        bp_config = BeliefPropagationConfig(
            similarity_threshold=0.25, max_iterations=chain + 2
        )
        index = traffic.index()
        dom_host, host_rdom = traffic.bp_views(rare)

        additive = AdditiveSimilarityScorer()
        regression = RegressionSimilarityScorer(
            _sim_model(), FeatureExtractor()
        )
        for family in ("additive", "regression"):
            if family == "additive":
                legacy_scoring = per_domain_frontier(
                    lambda d, mal: additive.score(d, mal, traffic)
                )
                fast_scoring = IncrementalAdditiveScorer(
                    additive, traffic, index=index
                ).score_frontier
            else:
                legacy_scoring = per_domain_frontier(
                    lambda d, mal: regression.score(d, mal, traffic, WHEN)
                )
                fast_scoring = BatchedSimilarityScorer(
                    regression, traffic, WHEN, index=index
                ).score_frontier
            legacy_s, legacy_result = _run(
                seed_hosts, seed_domains, bp_config,
                dom_host, host_rdom, legacy_scoring,
            )
            fast_s, fast_result = _run(
                seed_hosts, seed_domains, bp_config,
                dom_host, host_rdom, fast_scoring,
            )
            parity = (
                legacy_result.detections == fast_result.detections
                and legacy_result.trace == fast_result.trace
                and legacy_result.hosts == fast_result.hosts
                and legacy_result.domains == fast_result.domains
            )
            all_match = all_match and parity
            assert parity, f"{name}/{family}: detections diverged"
            assert len(fast_result.domains) == chain + 1, (
                f"{name}/{family}: chain did not fully label "
                f"({len(fast_result.domains)} of {chain + 1})"
            )
            speedup = legacy_s / fast_s if fast_s > 0 else float("inf")
            rows.append((
                name, family, frontier, chain,
                f"{legacy_s * 1e3:,.1f}", f"{fast_s * 1e3:,.1f}",
                f"{speedup:.1f}x", "yes" if parity else "NO",
            ))
            results.append({
                "config": name,
                "scorer": family,
                "frontier": frontier,
                "chain": chain,
                "iterations": fast_result.iterations,
                "legacy_seconds": legacy_s,
                "indexed_seconds": fast_s,
                "speedup": speedup,
                "detect_parity": parity,
            })

    if not SMOKE:
        largest = [r for r in results if r["config"] == configs[-1][0]]
        min_speedup = min(r["speedup"] for r in largest)
        assert min_speedup >= 5.0, (
            f"largest configuration speedup {min_speedup:.1f}x < 5x"
        )

    table = render_table(
        ("config", "scorer", "frontier", "chain",
         "legacy ms", "indexed ms", "speedup", "parity"),
        rows,
        title="Belief-propagation frontier scoring: legacy vs indexed",
    )
    save_output("bp_scale", table)
    payload = {
        "bench": "bp_scale",
        "smoke": SMOKE,
        "detect_parity": all_match,
        "rows": results,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "bp_scale.json").write_text(json.dumps(payload, indent=2) + "\n")

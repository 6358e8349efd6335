"""Seeded random traffic worlds shared by the scoring tests and goldens.

``random.Random(seed)`` loops stand in for hypothesis: every world is
a deterministic function of its seed, so the parity tests and the
golden recorder (``record.py``) replay exactly the same days.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.scoring import RegressionCCScorer, RegressionSimilarityScorer
from repro.features.extract import SIMILARITY_FEATURE_NAMES, FeatureExtractor
from repro.features.regression import LinearModel
from repro.features.whois import WhoisFeatureExtractor
from repro.intel.whois_db import WhoisDatabase
from repro.logs.records import Connection
from repro.profiling.history import DestinationHistory
from repro.profiling.rare import DailyTraffic, extract_rare_domains

SECONDS_PER_DAY = 86_400.0

CC_NAMES = ("no_hosts", "auto_hosts", "no_ref", "rare_ua", "dom_age",
            "dom_validity")


def random_day_connections(
    rng: random.Random, day: int, *, with_http: bool
) -> list[Connection]:
    """One random day mixing beacon campaigns, co-visit satellites,
    popular noise and background rarities."""
    base = day * SECONDS_PER_DAY
    hosts = [f"h{i:02d}" for i in range(rng.randint(8, 14))]
    connections: list[Connection] = []

    def emit(host, domain, ts, ip="", no_ref=False):
        connections.append(Connection(
            timestamp=base + ts,
            host=host,
            domain=domain,
            resolved_ip=ip,
            referer=("" if no_ref else "http://ref.example/") if with_http
            else None,
            user_agent="agent/1.0" if with_http else None,
        ))

    # Beaconing campaigns: several hosts, near-identical periods, so
    # the multi-host C&C heuristic (DNS) / automation test (both) fire.
    for c in range(rng.randint(0, 2)):
        domain = f"cc{day}{c}.evil"
        subnet = rng.randint(1, 6)
        ip = f"10.{subnet}.{rng.randint(0, 3)}.{rng.randint(1, 254)}"
        period = rng.choice([30.0, 60.0, 90.0])
        campaign_hosts = rng.sample(hosts, rng.randint(2, 3))
        start = rng.uniform(0, 2000.0)
        for host in campaign_hosts:
            for i in range(rng.randint(6, 10)):
                emit(host, domain, start + i * period, ip, no_ref=True)
        # Satellites: same hosts, first contact near the campaign's,
        # sometimes sharing its /24 or /16.
        for s in range(rng.randint(1, 3)):
            sat = f"sat{day}{c}{s}.evil"
            proximity = rng.random()
            if proximity < 0.4:
                sat_ip = f"10.{subnet}.{rng.randint(0, 3)}.{rng.randint(1, 254)}"
            elif proximity < 0.6:
                sat_ip = f"10.{subnet}.{rng.randint(4, 9)}.{rng.randint(1, 254)}"
            else:
                sat_ip = f"172.16.{rng.randint(0, 9)}.{rng.randint(1, 254)}"
            host = rng.choice(campaign_hosts)
            offset = rng.uniform(-1200.0, 1200.0)
            for i in range(rng.randint(1, 3)):
                emit(host, sat, start + offset + i * 700.0, sat_ip)

    # Popular domains (contacted by >= 10 hosts): never rare.
    for p in range(rng.randint(1, 3)):
        domain = f"popular{p}.example"
        for host in hosts:
            emit(host, domain, rng.uniform(0, 80_000.0), "192.0.2.10")

    # Background rare domains: few hosts, scattered times and subnets.
    for b in range(rng.randint(6, 14)):
        domain = f"bg{day}{b}.example"
        ip = f"198.51.{rng.randint(0, 60)}.{rng.randint(1, 254)}"
        for host in rng.sample(hosts, rng.randint(1, 3)):
            for i in range(rng.randint(1, 4)):
                emit(host, domain, rng.uniform(0, 80_000.0), ip,
                     no_ref=rng.random() < 0.3)

    rng.shuffle(connections)
    return connections


def aggregate(
    day: int,
    connections: list[Connection],
    history: DestinationHistory,
) -> tuple[DailyTraffic, set[str]]:
    """One day's traffic aggregate and its rare set."""
    traffic = DailyTraffic(day)
    traffic.ingest(connections)
    traffic.finalize()
    rare = extract_rare_domains(traffic, history, unpopular_max_hosts=10)
    return traffic, rare


def commit(traffic: DailyTraffic, history: DestinationHistory) -> None:
    """Fold the day's domains into the destination history."""
    for domain in traffic.hosts_by_domain:
        history.stage(domain, traffic.day)
    history.commit_day(traffic.day)


def linear_model(names, weights, intercept) -> LinearModel:
    """A fixed linear model (no fitting) over ``names``."""
    return LinearModel(
        feature_names=tuple(names),
        intercept=intercept,
        weights=np.asarray(weights, dtype=float),
        coefficients=(),
        r_squared=0.0,
        n_samples=len(weights) + 2,
    )


def enterprise_scorers(whois_db: WhoisDatabase | None):
    """A fresh, deterministic pair of trained-model scorers.

    Fresh per detection run: the WHOIS extractor's imputation means
    mutate during scoring, so runs compared against each other each
    need identical initial state."""
    whois = (
        WhoisFeatureExtractor(whois_db) if whois_db is not None else None
    )
    extractor = FeatureExtractor(None, whois)
    cc_model = linear_model(CC_NAMES, [0.5, 0.9, 0.3, 0.1, -0.2, -0.1], 0.02)
    sim_model = linear_model(
        SIMILARITY_FEATURE_NAMES,
        [0.25, 0.5, 0.3, 0.1, 0.08, 0.04, -0.15, -0.08],
        0.03,
    )
    cc_scorer = RegressionCCScorer(cc_model, extractor, threshold=0.25)
    sim_scorer = RegressionSimilarityScorer(sim_model, extractor)
    return cc_scorer, sim_scorer


def random_whois(rng: random.Random, connections) -> WhoisDatabase:
    """WHOIS records for ~60% of the day's domains; the rest impute."""
    db = WhoisDatabase()
    domains = sorted({c.domain for c in connections})
    for domain in domains:
        if rng.random() < 0.6:  # the rest impute from running means
            registered = rng.uniform(-2.0, 300.0) * SECONDS_PER_DAY
            db.register(
                domain,
                registered,
                registered + rng.uniform(30.0, 2000.0) * SECONDS_PER_DAY,
            )
    return db

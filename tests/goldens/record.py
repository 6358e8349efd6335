"""Frozen golden outputs of the daily detection routines and the
paper-figure evaluation harness.

Each golden is one JSON document next to this file, computed from
seeded worlds:

* ``dns_routine.json`` -- :func:`repro.runner.detect_on_traffic` over
  12 random 3-day DNS worlds (hint hosts and intel seeds drawn per
  day): C&C domains, detections, intel seeds, BP detections and trace.
* ``enterprise_routine.json`` --
  :func:`repro.core.pipeline.detect_on_enterprise_traffic` over 10
  random 2-day proxy worlds (WHOIS on odd days): C&C scores, both BP
  runs and the WHOIS imputation state left behind.
* ``lanl_solve_all.json`` -- :meth:`LanlChallengeSolver.solve_all` on
  ``SMALL_LANL``, per challenge day: case, detections, counts, C&C
  seeds, BP detections and trace.
* ``enterprise_sweeps.json`` -- a fresh
  :class:`~repro.eval.EnterpriseEvaluation` on ``SMALL_ENTERPRISE``:
  per-day C&C scores and the detected sets of the Figure 6 sweeps.

``tests/test_goldens.py`` recomputes every document and compares its
text byte for byte, so any change to scoring order, tie-breaking or
floating-point arithmetic shows up as a diff.  Re-record only when a
detection change is intended, from the repository root::

    PYTHONPATH=src python tests/goldens/record.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from goldens.worlds import (  # noqa: E402
    aggregate,
    commit,
    enterprise_scorers,
    random_day_connections,
    random_whois,
)
from repro.config import LANL_CONFIG, SystemConfig  # noqa: E402
from repro.core.pipeline import detect_on_enterprise_traffic  # noqa: E402
from repro.core.scoring import AdditiveSimilarityScorer  # noqa: E402
from repro.profiling.history import DestinationHistory  # noqa: E402
from repro.runner import detect_on_traffic  # noqa: E402
from repro.timing.detector import AutomationDetector  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent


def bp_doc(result) -> dict | None:
    """A belief-propagation result as plain JSON, trace included."""
    if result is None:
        return None
    return {
        "hosts": sorted(result.hosts),
        "domains": sorted(result.domains),
        "detections": [
            [d.domain, d.iteration, d.reason, d.score]
            for d in result.detections
        ],
        "trace": [
            [
                t.iteration, list(t.cc_detected), list(t.labeled),
                t.top_score, list(t.new_hosts), t.frontier_size,
            ]
            for t in result.trace
        ],
    }


def dns_routine() -> list[dict]:
    """``detect_on_traffic`` outputs over the random DNS worlds."""
    days = []
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
            result = detect_on_traffic(
                traffic, rare, automation=automation, scorer=scorer,
                config=LANL_CONFIG, hint_hosts=hint_hosts,
                intel_domains=intel,
            )
            days.append({
                "seed": seed,
                "day": day,
                "cc_domains": sorted(result.cc_domains),
                "detected": result.detected,
                "intel_seeded": sorted(result.intel_seeded),
                "bp": bp_doc(result.bp_result),
            })
            commit(traffic, history)
    return days


def enterprise_routine() -> list[dict]:
    """``detect_on_enterprise_traffic`` outputs over the random proxy
    worlds, including the WHOIS imputation state each run leaves."""
    config = SystemConfig().with_thresholds(similarity=0.3, cc_score=0.25)
    days = []
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
            cc_scorer, sim_scorer = enterprise_scorers(whois_db)
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
            days.append({
                "seed": seed,
                "day": day,
                "cc_domains": [
                    [scored.domain, scored.score]
                    for scored in result.cc_domains
                ],
                "intel_seeded": sorted(result.intel_seeded),
                "no_hint": bp_doc(result.no_hint),
                "soc_hints": bp_doc(result.soc_hints),
                "all_detected": sorted(result.all_detected_domains()),
                "whois_state": None if whois is None else [
                    whois._age_sum, whois._validity_sum, whois._observed,
                ],
            })
            commit(traffic, history)
    return days


def lanl_solve_all() -> list[dict]:
    """Per-day outcomes of the LANL challenge solver on a freshly
    generated ``SMALL_LANL`` world."""
    from repro.eval import LanlChallengeSolver
    from repro.synthetic import generate_lanl_dataset
    from repro.testing import SMALL_LANL

    report = LanlChallengeSolver(generate_lanl_dataset(SMALL_LANL)).solve_all()
    return [
        {
            "march_date": outcome.march_date,
            "case": outcome.case,
            "detected": outcome.detected,
            "counts": [
                outcome.counts.true_positives,
                outcome.counts.false_positives,
                outcome.counts.false_negatives,
            ],
            "cc_seeds": sorted(outcome.cc_seeds),
            "bp": bp_doc(outcome.bp_result),
        }
        for outcome in report.outcomes
    ]


def enterprise_sweeps(dataset=None) -> dict:
    """C&C scores and Figure 6 sweep detections on ``SMALL_ENTERPRISE``.

    Always evaluates on a fresh :class:`EnterpriseEvaluation`: scoring
    advances the WHOIS imputation means, so a shared evaluation would
    make the output depend on what ran before.
    """
    from repro.eval import EnterpriseEvaluation

    if dataset is None:
        from repro.synthetic import generate_enterprise_dataset
        from repro.testing import SMALL_ENTERPRISE

        dataset = generate_enterprise_dataset(SMALL_ENTERPRISE)
    evaluation = EnterpriseEvaluation(dataset)

    def sweep(points) -> list:
        return [[p.threshold, sorted(p.detected)] for p in points]

    return {
        "cc_scores": [
            [op_day.day, sorted(op_day.cc_scores.items())]
            for op_day in evaluation.days
        ],
        "cc_sweep": sweep(evaluation.cc_sweep()),
        "no_hint_sweep": sweep(evaluation.no_hint_sweep()),
        "soc_hints_sweep": sweep(evaluation.soc_hints_sweep()),
    }


GOLDENS = {
    "dns_routine": dns_routine,
    "enterprise_routine": enterprise_routine,
    "lanl_solve_all": lanl_solve_all,
    "enterprise_sweeps": enterprise_sweeps,
}


def render(document) -> str:
    """Canonical JSON text of a golden document."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def main() -> None:
    for name, build in GOLDENS.items():
        path = golden_path(name)
        path.write_text(render(build()))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

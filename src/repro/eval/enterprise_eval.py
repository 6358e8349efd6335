"""Enterprise (AC) evaluation harness (Section VI).

Trains the full pipeline on the synthetic enterprise's bootstrap month,
replays the operation month once to cache per-day aggregation state,
then sweeps thresholds cheaply over the cached state:

* :meth:`EnterpriseEvaluation.cc_sweep` -- Figure 6(a): domains labeled
  C&C as the automated-domain score threshold varies;
* :meth:`EnterpriseEvaluation.no_hint_sweep` -- Figure 6(b): belief
  propagation seeded by detected C&C, varying the similarity threshold;
* :meth:`EnterpriseEvaluation.soc_hints_sweep` -- Figure 6(c): belief
  propagation seeded by SOC IOC domains;
* :meth:`EnterpriseEvaluation.score_samples` -- Figure 5: automated
  domain scores split by VirusTotal label.

Validation mirrors Section VI-B: detections are classified as known
malicious (VT or SOC), new malicious (truly malicious, unknown to
both -- the paper's new discoveries), or legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import ENTERPRISE_CONFIG, SystemConfig
from ..core.beliefprop import BeliefPropagationResult, belief_propagation
from ..core.pipeline import EnterpriseDetector, _automated_hosts_by_domain
from ..core.scoring import BatchedSimilarityScorer
from ..intel.ioc import IocList
from ..intel.virustotal import VirusTotalOracle
from ..profiling.rare import DailyTraffic
from ..synthetic.enterprise import EnterpriseDataset
from .metrics import ValidationBreakdown, validate_detections

SECONDS_PER_DAY = 86_400.0


@dataclass
class OperationalDay:
    """Cached aggregation state for one operation day."""

    day: int
    traffic: DailyTraffic
    rare: set[str]
    auto_hosts: dict[str, set[str]]
    cc_scores: dict[str, float]
    when: float


@dataclass(frozen=True)
class SweepPoint:
    """One threshold point of a Figure 6 sweep."""

    threshold: float
    detected: frozenset[str]
    breakdown: ValidationBreakdown

    @property
    def detected_count(self) -> int:
        return len(self.detected)


@dataclass
class EnterpriseEvaluation:
    """Trained pipeline plus cached operation-month state."""

    dataset: EnterpriseDataset
    config: SystemConfig = field(default_factory=lambda: ENTERPRISE_CONFIG)
    detector: EnterpriseDetector = field(init=False)
    virustotal: VirusTotalOracle = field(init=False)
    ioc: IocList = field(init=False)
    days: list[OperationalDay] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.virustotal = self.dataset.build_virustotal()
        self.ioc = self.dataset.build_ioc_list()
        self.detector = EnterpriseDetector(self.config, whois=self.dataset.whois)
        training = self.dataset.day_batches(0, self.dataset.config.bootstrap_days)
        self.detector.train(training, self.virustotal)
        if self.detector.cc_scorer is None or self.detector.similarity_scorer is None:
            raise RuntimeError(
                "training did not produce both models; enlarge the dataset"
            )
        self._replay_operation_month()

    def _replay_operation_month(self) -> None:
        """Aggregate every operation day once, updating profiles in order."""
        first = self.dataset.config.bootstrap_days
        last = self.dataset.config.total_days
        for day, connections in self.dataset.day_batches(first, last):
            traffic, rare = self.detector._aggregate_day(day, connections)
            when = (day + 1) * SECONDS_PER_DAY
            verdicts = self.detector._automation_verdicts(traffic, rare)
            auto_hosts = _automated_hosts_by_domain(verdicts)
            candidates = sorted(auto_hosts)
            cc_scores = dict(zip(
                candidates,
                self.detector.cc_scorer.score_all(
                    candidates, traffic, auto_hosts, when
                ),
            ))
            self.days.append(
                OperationalDay(
                    day=day,
                    traffic=traffic,
                    rare=rare,
                    auto_hosts=auto_hosts,
                    cc_scores=cc_scores,
                    when=when,
                )
            )
            self.detector._profile_day(day, connections)

    # ------------------------------------------------------------------
    # Figure 5
    # ------------------------------------------------------------------

    def score_samples(self) -> tuple[list[float], list[float]]:
        """(reported scores, legitimate scores) of automated domains."""
        reported: list[float] = []
        legitimate: list[float] = []
        for op_day in self.days:
            for domain, score in op_day.cc_scores.items():
                if self.virustotal.is_reported(domain):
                    reported.append(score)
                else:
                    legitimate.append(score)
        return reported, legitimate

    # ------------------------------------------------------------------
    # Detection at a given threshold
    # ------------------------------------------------------------------

    def cc_detections(self, tc: float) -> set[str]:
        """Domains labeled C&C over the month at threshold ``tc``."""
        detected: set[str] = set()
        for op_day in self.days:
            detected.update(
                domain
                for domain, score in op_day.cc_scores.items()
                if score >= tc
            )
        return detected

    def run_bp(
        self,
        op_day: OperationalDay,
        seed_hosts: set[str],
        seed_domains: set[str],
        cc_set: set[str],
        ts: float,
    ) -> BeliefPropagationResult:
        """Belief propagation on one cached day at similarity threshold
        ``ts``, scored the way the daily routine scores: the day's
        :meth:`~repro.profiling.DailyTraffic.bp_views` and one fresh
        :class:`~repro.core.scoring.BatchedSimilarityScorer`."""
        dom_host, host_rdom = op_day.traffic.bp_views(op_day.rare)
        return belief_propagation(
            seed_hosts,
            seed_domains,
            dom_host=dom_host,
            host_rdom=host_rdom,
            detect_cc=lambda domain: domain in cc_set,
            score_frontier=BatchedSimilarityScorer(
                self.detector.similarity_scorer, op_day.traffic, op_day.when
            ).score_frontier,
            config=replace(
                self.config.belief_propagation, similarity_threshold=ts
            ),
        )

    def no_hint_detections(self, ts: float, tc: float = 0.4) -> set[str]:
        """No-hint mode over the month: C&C seeds + BP expansion."""
        detected: set[str] = set()
        for op_day in self.days:
            cc_set = {
                domain
                for domain, score in op_day.cc_scores.items()
                if score >= tc
            }
            if not cc_set:
                continue
            seed_hosts: set[str] = set()
            for domain in cc_set:
                seed_hosts.update(op_day.traffic.hosts_by_domain.get(domain, ()))
            detected.update(cc_set)
            detected.update(
                self.run_bp(
                    op_day, seed_hosts, set(cc_set), cc_set, ts
                ).detected_domains
            )
        return detected

    def soc_hints_detections(self, ts: float, tc: float = 0.4) -> set[str]:
        """SOC-hints mode: IOC-seeded BP; seeds excluded from output."""
        seeds = set(self.ioc.seeds())
        detected: set[str] = set()
        for op_day in self.days:
            present = {
                domain for domain in seeds
                if domain in op_day.traffic.hosts_by_domain
            }
            if not present:
                continue
            cc_set = {
                domain
                for domain, score in op_day.cc_scores.items()
                if score >= tc
            }
            seed_hosts: set[str] = set()
            for domain in present:
                seed_hosts.update(op_day.traffic.hosts_by_domain.get(domain, ()))
            detected.update(
                self.run_bp(
                    op_day, seed_hosts, present, cc_set, ts
                ).detected_domains
            )
        return detected - seeds

    # ------------------------------------------------------------------
    # Sweeps (Figure 6)
    # ------------------------------------------------------------------

    def _validate(self, detected: set[str]) -> ValidationBreakdown:
        return validate_detections(
            detected,
            self.dataset.malicious_domains,
            self.virustotal.reported_domains,
            set(self.ioc.seeds()),
        )

    def cc_sweep(
        self, thresholds: tuple[float, ...] = (0.40, 0.42, 0.44, 0.45, 0.46, 0.48)
    ) -> list[SweepPoint]:
        """Figure 6(a)."""
        return [
            SweepPoint(tc, frozenset(d := self.cc_detections(tc)), self._validate(d))
            for tc in thresholds
        ]

    def no_hint_sweep(
        self,
        thresholds: tuple[float, ...] = (0.33, 0.5, 0.65, 0.75, 0.85),
        tc: float = 0.4,
    ) -> list[SweepPoint]:
        """Figure 6(b)."""
        return [
            SweepPoint(
                ts,
                frozenset(d := self.no_hint_detections(ts, tc)),
                self._validate(d),
            )
            for ts in thresholds
        ]

    def soc_hints_sweep(
        self,
        thresholds: tuple[float, ...] = (0.33, 0.37, 0.40, 0.41, 0.45),
        tc: float = 0.4,
    ) -> list[SweepPoint]:
        """Figure 6(c)."""
        return [
            SweepPoint(
                ts,
                frozenset(d := self.soc_hints_detections(ts, tc)),
                self._validate(d),
            )
            for ts in thresholds
        ]

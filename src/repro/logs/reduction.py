"""Data-reduction funnel with per-step accounting (Section IV-A, Figure 2).

The paper reduces multi-terabyte daily logs by an order of magnitude
before any detection runs.  For DNS logs the steps are:

1. keep only A records;
2. drop queries for internal resources;
3. drop queries initiated by internal servers.

Profiling then derives *new* and *rare* destinations on top of the
reduced stream.  :class:`ReductionFunnel` streams records through the
filters while counting distinct domains surviving each step per day --
exactly the series plotted in Figure 2 -- and
:meth:`ReductionFunnel.connection_batches` turns the survivors into the
columnar events every DNS consumer ingests.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

from ..obs.metrics import NULL_METRICS
from .dns import is_external_query
from .domains import fold_domain
from .records import ConnectionBatch, DnsRecord, DnsRecordType

SECONDS_PER_DAY = 86_400

#: Ordered step names; "new"/"rare" are appended by the profiling layer.
DNS_REDUCTION_STEPS = (
    "all",
    "a_records",
    "filter_internal_queries",
    "filter_internal_servers",
)


@dataclass
class ReductionStats:
    """Distinct-domain and record counts per reduction step and day."""

    domains: dict[str, dict[int, set[str]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(set))
    )
    records: dict[str, dict[int, int]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(int))
    )

    def observe(self, step: str, day: int, domain: str) -> None:
        """Record one day's pre/post-reduction record counts."""
        self.domains[step][day].add(domain)
        self.records[step][day] += 1

    def domain_counts(self, step: str) -> dict[int, int]:
        """Distinct domains per day surviving ``step``."""
        return {day: len(doms) for day, doms in self.domains[step].items()}

    def record_counts(self, step: str) -> dict[int, int]:
        return dict(self.records[step])

    def days(self) -> list[int]:
        """How many days of reduction this tracker has observed."""
        observed: set[int] = set()
        for per_day in self.domains.values():
            observed.update(per_day)
        return sorted(observed)


class ReductionFunnel:
    """Streams DNS records through the Section IV-A reduction filters.

    Parameters mirror the paper's setting: the organization's internal
    namespace suffixes and the set of internal server addresses whose
    queries should be ignored.
    """

    def __init__(
        self,
        internal_suffixes: tuple[str, ...] = (),
        server_ips: frozenset[str] = frozenset(),
        *,
        fold_level: int = 3,
        metrics=None,
    ) -> None:
        self.internal_suffixes = internal_suffixes
        self.server_ips = server_ips
        self.fold_level = fold_level
        self.stats = ReductionStats()
        # Counters are resolved once here, but the per-record hot path
        # never touches them: increments accumulate in plain ints and
        # flush in bulk every ``_FLUSH_EVERY`` records (and at the end
        # of each ``reduce`` pass), so a registry lock is taken a
        # handful of times per day instead of once per record
        # (``metrics`` is an optional repro.obs.MetricsRegistry).
        obs = metrics if metrics is not None else NULL_METRICS
        self._seen_counter = obs.counter("reduction_records_total")
        self._kept_counter = obs.counter(
            "reduction_kept_total", stage="filter_internal_servers"
        )
        self._drop_counters = {
            "a_records": obs.counter(
                "reduction_dropped_total", stage="non_a_record"
            ),
            "internal_query": obs.counter(
                "reduction_dropped_total", stage="internal_query"
            ),
            "internal_server": obs.counter(
                "reduction_dropped_total", stage="internal_server"
            ),
        }
        self._pending_seen = 0
        self._pending_kept = 0
        self._pend_drop_a = 0
        self._pend_drop_query = 0
        self._pend_drop_server = 0
        # Hot-path caches: folding and the internal-namespace test are
        # pure functions of the raw domain name (the suffixes are fixed
        # per funnel), so both are computed once per distinct domain;
        # :meth:`connection_batches` reads the fold back for each kept
        # row.  Per-day stats are equally redundant per record: a
        # domain's step sets only change the first time the domain
        # reaches a deeper step that day (tracked in ``_dom_depth``),
        # and the per-step record counts are plain ints flushed into
        # the stats dicts at day boundaries and on
        # :meth:`flush_metrics`.  Byte-identical to the uncached path
        # at every flush point.
        self._domain_memo: dict[str, tuple[str, bool]] = {}
        self._stat_day: int | None = None
        self._dom_depth: dict[str, int] = {}
        self._dom_all: set[str] = set()
        self._dom_a: set[str] = set()
        self._dom_ext: set[str] = set()
        self._dom_kept: set[str] = set()
        self._pend_all = 0
        self._pend_a = 0
        self._pend_ext = 0
        self._pend_kept = 0

    _FLUSH_EVERY = 4096
    #: Records :meth:`reduce` pulls per :meth:`reduce_batch` call.
    _CHUNK = 2048

    def _flush_stat_counts(self) -> None:
        """Fold the deferred per-step record counts into the stats."""
        day = self._stat_day
        if day is None:
            return
        records = self.stats.records
        if self._pend_all:
            records["all"][day] += self._pend_all
            self._pend_all = 0
        if self._pend_a:
            records["a_records"][day] += self._pend_a
            self._pend_a = 0
        if self._pend_ext:
            records["filter_internal_queries"][day] += self._pend_ext
            self._pend_ext = 0
        if self._pend_kept:
            records["filter_internal_servers"][day] += self._pend_kept
            self._pend_kept = 0

    def flush_metrics(self) -> None:
        """Fold the locally accumulated counts into the registry.

        Called automatically on the flush cadence and when a ``reduce``
        pass is exhausted; snapshots taken at day/round barriers are
        therefore exact.  Also folds the deferred per-step record
        counts into :attr:`stats`, so the Figure 2 numbers are exact at
        the same points.
        """
        self._flush_stat_counts()
        if self._pending_seen:
            self._seen_counter.inc(self._pending_seen)
            self._pending_seen = 0
        if self._pending_kept:
            self._kept_counter.inc(self._pending_kept)
            self._pending_kept = 0
        if self._pend_drop_a:
            self._drop_counters["a_records"].inc(self._pend_drop_a)
            self._pend_drop_a = 0
        if self._pend_drop_query:
            self._drop_counters["internal_query"].inc(self._pend_drop_query)
            self._pend_drop_query = 0
        if self._pend_drop_server:
            self._drop_counters["internal_server"].inc(self._pend_drop_server)
            self._pend_drop_server = 0

    def reduce_batch(self, records: Iterable[DnsRecord]) -> list[DnsRecord]:
        """Run a chunk of records through the filters; returns the kept.

        The funnel's one filter loop.  The filter predicates are inlined
        versions of :func:`~repro.logs.dns.is_a_record` /
        :func:`~repro.logs.dns.is_from_client` (memoized
        :func:`~repro.logs.dns.is_external_query` in between), applied
        in that order with the same short-circuiting.  Per-record state
        is hoisted into locals and folded back once per chunk (and at
        each day boundary inside it), so the Figure 2 accounting is
        exact at every flush point whatever the chunking.
        """
        memo = self._domain_memo
        fold_level = self.fold_level
        suffixes = self.internal_suffixes
        server_ips = self.server_ips
        a_type = DnsRecordType.A
        dom_depth = self._dom_depth
        dom_all = self._dom_all
        dom_a = self._dom_a
        dom_ext = self._dom_ext
        dom_kept = self._dom_kept
        stat_day = self._stat_day
        n_all = n_a = n_ext = n_kept = 0
        drop_a = drop_query = drop_server = 0
        seen_prior = kept_prior = 0
        kept: list[DnsRecord] = []
        keep = kept.append
        for record in records:
            day = int(record.timestamp // SECONDS_PER_DAY)
            if day != stat_day:
                # Day boundary: fold the chunk-local counts back and
                # rebind every per-day structure (self and locals).
                seen_prior += n_all
                kept_prior += n_kept
                self._pend_all += n_all
                self._pend_a += n_a
                self._pend_ext += n_ext
                self._pend_kept += n_kept
                n_all = n_a = n_ext = n_kept = 0
                self._flush_stat_counts()
                stat_day = self._stat_day = day
                domains = self.stats.domains
                dom_all = self._dom_all = domains["all"][day]
                dom_a = self._dom_a = domains["a_records"][day]
                dom_ext = self._dom_ext = (
                    domains["filter_internal_queries"][day]
                )
                dom_kept = self._dom_kept = (
                    domains["filter_internal_servers"][day]
                )
                dom_depth = self._dom_depth = {}
            cached = memo.get(record.domain)
            if cached is None:
                cached = (
                    fold_domain(record.domain, fold_level),
                    is_external_query(record, suffixes),
                )
                memo[record.domain] = cached
            domain, external = cached
            # How deep the record gets through the funnel: 1 = dropped
            # as non-A, 2 = internal query, 3 = internal server, 4 = kept.
            if record.record_type is not a_type:
                depth = 1
            elif not external:
                depth = 2
            elif record.source_ip in server_ips:
                depth = 3
            else:
                depth = 4
            prev = dom_depth.get(domain, 0)
            if depth > prev:
                dom_depth[domain] = depth
                if prev < 1:
                    dom_all.add(domain)
                if prev < 2 <= depth:
                    dom_a.add(domain)
                if prev < 3 <= depth:
                    dom_ext.add(domain)
                if prev < 4 <= depth:
                    dom_kept.add(domain)
            n_all += 1
            if depth == 1:
                drop_a += 1
                continue
            n_a += 1
            if depth == 2:
                drop_query += 1
                continue
            n_ext += 1
            if depth == 3:
                drop_server += 1
                continue
            n_kept += 1
            keep(record)
        self._pend_all += n_all
        self._pend_a += n_a
        self._pend_ext += n_ext
        self._pend_kept += n_kept
        self._pend_drop_a += drop_a
        self._pend_drop_query += drop_query
        self._pend_drop_server += drop_server
        self._pending_seen += seen_prior + n_all
        self._pending_kept += kept_prior + n_kept
        if self._pending_seen >= self._FLUSH_EVERY:
            self.flush_metrics()
        return kept

    def reduce(self, records: Iterable[DnsRecord]) -> Iterator[DnsRecord]:
        """Yield records surviving all filters, updating the counters.

        Records are pulled and filtered :attr:`_CHUNK` at a time through
        :meth:`reduce_batch`; the metrics flush when the pass ends or
        is closed early.
        """
        source = iter(records)
        try:
            while chunk := list(islice(source, self._CHUNK)):
                yield from self.reduce_batch(chunk)
        finally:
            self.flush_metrics()

    def connection_batches(
        self,
        records: Iterable[DnsRecord],
        *,
        batch_size: int = 512,
        skip: int = 0,
    ) -> Iterator[ConnectionBatch]:
        """Reduce raw DNS records into columnar connection batches.

        The DNS ingress: every record :meth:`reduce` keeps becomes one
        row of a :class:`~repro.logs.records.ConnectionBatch` of at
        most ``batch_size`` rows, its domain folded through the
        funnel's own memo (``fold_level``), so no per-event
        :class:`~repro.logs.records.Connection` is built.  The first
        ``skip`` kept rows are dropped after reduction -- a resumed
        replay passes the events it already consumed, and the Figure 2
        accounting still sees the whole file.
        """
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        memo = self._domain_memo
        times: list[float] = []
        hosts: list[str] = []
        domains: list[str] = []
        ips: list[str] = []
        rows = self.reduce(records)
        try:
            for record in islice(rows, skip, None):
                times.append(record.timestamp)
                hosts.append(record.source_ip)
                domains.append(memo[record.domain][0])
                ips.append(record.resolved_ip)
                if len(times) >= batch_size:
                    yield ConnectionBatch(times, hosts, domains, ips)
                    times, hosts, domains, ips = [], [], [], []
            if times:
                yield ConnectionBatch(times, hosts, domains, ips)
        finally:
            rows.close()

    def observe_profiling_step(self, step: str, day: int, domains: Iterable[str]) -> None:
        """Record domains surviving a downstream profiling step.

        The profiling layer calls this with the daily "new" and "rare"
        destination sets so the full Figure 2 funnel lives in one place.
        """
        for domain in domains:
            self.stats.observe(step, day, domain)

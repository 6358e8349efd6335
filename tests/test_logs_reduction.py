"""Unit tests for the reduction funnel (Section IV-A, Figure 2)."""

import random

import pytest

from repro.logs import DnsRecord, DnsRecordType, ReductionFunnel
from repro.logs.dns import is_external_query
from repro.logs.domains import fold_domain
from repro.logs.normalize import normalize_dns_records
from repro.logs.reduction import DNS_REDUCTION_STEPS
from repro.obs.metrics import MetricsRegistry

SUFFIXES = ("int.c0",)
SERVERS = frozenset({"10.0.0.250"})


def rec(domain, *, ts=100.0, src="10.0.0.1", rtype=DnsRecordType.A):
    return DnsRecord(timestamp=ts, source_ip=src, domain=domain, record_type=rtype)


class TestReductionFunnel:
    def test_keeps_external_client_a_records(self):
        funnel = ReductionFunnel(("int.c0",), frozenset({"10.0.0.250"}))
        out = list(funnel.reduce([rec("evil.example.c3")]))
        assert len(out) == 1

    def test_drops_non_a(self):
        funnel = ReductionFunnel()
        out = list(funnel.reduce([rec("a.c3", rtype=DnsRecordType.TXT)]))
        assert out == []

    def test_drops_internal_queries(self):
        funnel = ReductionFunnel(("int.c0",))
        out = list(funnel.reduce([rec("printer.int.c0")]))
        assert out == []

    def test_drops_server_queries(self):
        funnel = ReductionFunnel(server_ips=frozenset({"10.0.0.250"}))
        out = list(funnel.reduce([rec("a.c3", src="10.0.0.250")]))
        assert out == []

    def test_funnel_is_monotone_per_step(self):
        """Each successive step must retain a subset of the previous."""
        funnel = ReductionFunnel(("int.c0",), frozenset({"10.0.0.250"}))
        records = [
            rec("a.c3"),
            rec("b.c3", rtype=DnsRecordType.PTR),
            rec("x.int.c0"),
            rec("c.c3", src="10.0.0.250"),
            rec("d.c3"),
        ]
        list(funnel.reduce(records))
        day = 100.0 // 86_400
        counts = [
            funnel.stats.domain_counts(step).get(int(day), 0)
            for step in (
                "all",
                "a_records",
                "filter_internal_queries",
                "filter_internal_servers",
            )
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 5
        assert counts[-1] == 2  # a.c3 and d.c3 survive

    def test_record_counts_tracked(self):
        funnel = ReductionFunnel()
        list(funnel.reduce([rec("a.c3"), rec("a.c3"), rec("b.c3")]))
        assert funnel.stats.record_counts("all")[0] == 3
        assert funnel.stats.domain_counts("all")[0] == 2

    def test_profiling_steps_recorded(self):
        funnel = ReductionFunnel()
        funnel.observe_profiling_step("rare", 5, ["x.c3", "y.c3"])
        assert funnel.stats.domain_counts("rare")[5] == 2

    def test_days_enumeration(self):
        funnel = ReductionFunnel()
        list(funnel.reduce([rec("a.c3", ts=10.0), rec("b.c3", ts=86_400.0 + 5)]))
        assert funnel.stats.days() == [0, 1]

    def test_folding_merges_subdomains(self):
        funnel = ReductionFunnel(fold_level=2)
        list(funnel.reduce([rec("x.evil.com"), rec("y.evil.com")]))
        assert funnel.stats.domain_counts("all")[0] == 1


def _mixed_records(n, *, start=0.0, step=7.0, seed=0):
    """``n`` time-ordered records mixing every funnel outcome."""
    rng = random.Random(seed)
    names = [f"{sub}.site{i}.c{i % 3}" for i in range(12) for sub in ("a", "b")]
    names += ["printer.int.c0", "mail.int.c0"]
    types = [DnsRecordType.A] * 6 + [DnsRecordType.TXT, DnsRecordType.PTR]
    hosts = [f"10.0.0.{i}" for i in range(1, 9)] + ["10.0.0.250"]
    return [
        DnsRecord(
            timestamp=start + step * i,
            source_ip=rng.choice(hosts),
            domain=rng.choice(names),
            record_type=rng.choice(types),
            resolved_ip=rng.choice(["", "93.184.216.34", "93.184.216.35"]),
        )
        for i in range(n)
    ]


def _expected_funnel(records):
    """Per-step, per-day Figure 2 domain sets and record counts,
    computed record by record from the filter definitions."""
    domains = {step: {} for step in DNS_REDUCTION_STEPS}
    counts = {step: {} for step in DNS_REDUCTION_STEPS}
    for record in records:
        day = int(record.timestamp // 86_400)
        reached = ["all"]
        if record.record_type is DnsRecordType.A:
            reached.append("a_records")
            if is_external_query(record, SUFFIXES):
                reached.append("filter_internal_queries")
                if record.source_ip not in SERVERS:
                    reached.append("filter_internal_servers")
        for step in reached:
            domains[step].setdefault(day, set()).add(
                fold_domain(record.domain, 3)
            )
            counts[step][day] = counts[step].get(day, 0) + 1
    return domains, counts


def _rows(batches):
    return [
        row
        for batch in batches
        for row in zip(
            batch.timestamps, batch.hosts, batch.domains, batch.resolved_ips
        )
    ]


def _figure2(funnel):
    return {
        step: (
            funnel.stats.domain_counts(step),
            funnel.stats.record_counts(step),
        )
        for step in DNS_REDUCTION_STEPS
    }


class TestConnectionBatches:
    @pytest.mark.parametrize("skip", [0, 3])
    @pytest.mark.parametrize("batch_size", [1, 7, 512, 10**6])
    def test_rows_and_funnel_match_scalar_path(self, batch_size, skip):
        records = _mixed_records(3000, start=86_400.0 - 4000.0)
        reference = ReductionFunnel(SUFFIXES, SERVERS)
        want = [
            (c.timestamp, c.host, c.domain, c.resolved_ip)
            for c in normalize_dns_records(
                reference.reduce(records), fold_level=3
            )
        ][skip:]
        funnel = ReductionFunnel(SUFFIXES, SERVERS)
        batches = list(
            funnel.connection_batches(
                records, batch_size=batch_size, skip=skip
            )
        )
        assert _rows(batches) == want
        assert all(0 < len(batch) <= batch_size for batch in batches)
        assert _figure2(funnel) == _figure2(reference)

    def test_day_boundary_inside_one_chunk(self):
        # 1500 records straddle midnight, well inside the first
        # 2048-record chunk the funnel pulls.
        records = _mixed_records(1500, start=86_400.0 - 5000.0, step=10.0)
        assert len({int(r.timestamp // 86_400) for r in records}) == 2
        funnel = ReductionFunnel(SUFFIXES, SERVERS)
        list(funnel.connection_batches(records, batch_size=64))

        domains, counts = _expected_funnel(records)
        for step in DNS_REDUCTION_STEPS:
            assert funnel.stats.domain_counts(step) == {
                day: len(names) for day, names in domains[step].items()
            }
            assert funnel.stats.record_counts(step) == counts[step]

    def test_rejects_nonpositive_batch_size(self):
        funnel = ReductionFunnel()
        with pytest.raises(ValueError):
            next(funnel.connection_batches([rec("a.c3")], batch_size=0))

    def test_early_close_flushes_metrics(self):
        records = _mixed_records(3000)
        registry = MetricsRegistry()
        funnel = ReductionFunnel(SUFFIXES, SERVERS, metrics=registry)
        batches = funnel.connection_batches(records, batch_size=10)
        next(batches)
        batches.close()

        # The first chunk was reduced whole before the first batch
        # was cut; its counts must all be in the registry.
        _, counts = _expected_funnel(records[:ReductionFunnel._CHUNK])
        seen, a_records, external, kept = (
            sum(counts[step].values()) for step in DNS_REDUCTION_STEPS
        )
        assert seen > a_records > external > kept > 0
        snapshot = registry.snapshot()
        assert snapshot.counter_value("reduction_records_total") == seen
        assert snapshot.counter_value(
            "reduction_kept_total", stage="filter_internal_servers"
        ) == kept
        assert snapshot.counter_value(
            "reduction_dropped_total", stage="non_a_record"
        ) == seen - a_records
        assert snapshot.counter_value(
            "reduction_dropped_total", stage="internal_query"
        ) == a_records - external
        assert snapshot.counter_value(
            "reduction_dropped_total", stage="internal_server"
        ) == external - kept

"""Parity property tests: columnar/vectorized paths vs legacy scalar.

The columnar hot core (NumPy-backed :class:`repro.profiling.DailyTraffic`,
vectorized timing in :mod:`repro.timing.batch`, batched C&C features)
promises *bit-identical* results to the scalar implementations it
replaced.  These hypothesis tests pin that promise on randomized
inputs, explicitly covering the degenerate shapes the fast paths
special-case: empty series, single-event series, and
duplicate-timestamp series (zero intervals).

Every test here carries the ``parity`` marker (``pytest -m parity``
runs the whole legacy-vs-columnar equivalence group, see
``tests/conftest.py``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.records import Connection, ConnectionBatch
from repro.profiling.rare import _SMALL_SPAN, DailyTraffic
from repro.timing.batch import (
    assign_interval_array,
    automated_pairs_batch,
    intervals_array,
    jeffrey_divergence_array,
    l1_distance_array,
)
from repro.timing.detector import AutomationDetector
from repro.timing.divergence import (
    jeffrey_divergence,
    l1_distance,
    periodic_reference,
)
from repro.timing.histogram import assign_interval, build_histogram, intervals

pytestmark = pytest.mark.parity

# Mixing fine-grained floats with a coarse integer grid makes
# duplicate timestamps (and therefore zero intervals) common instead
# of vanishingly rare; ``min_size=0`` keeps empty and single-event
# series in every strategy's reachable set.
fine_times = st.floats(
    min_value=0.0, max_value=86_400.0, allow_nan=False, allow_infinity=False
)
coarse_times = st.integers(min_value=0, max_value=40).map(float)
timestamp_series = st.lists(
    st.one_of(fine_times, coarse_times), min_size=0, max_size=50
).map(sorted)

positive_floats = st.floats(
    min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
)
interval_lists = st.lists(
    st.one_of(positive_floats, st.integers(0, 12).map(float)),
    min_size=0,
    max_size=60,
)
bin_widths = st.floats(min_value=0.01, max_value=1e4)


class TestVectorizedTimingParity:
    @given(timestamp_series)
    def test_intervals_matches_scalar(self, times):
        assert intervals_array(times).tolist() == intervals(times)

    @given(timestamp_series)
    def test_unsorted_raises_in_both(self, times):
        if len(set(times)) < 2:
            return  # reversing an all-equal series is still sorted
        shuffled = sorted(times, reverse=True)
        with pytest.raises(ValueError):
            intervals(shuffled)
        with pytest.raises(ValueError):
            intervals_array(shuffled)

    @given(interval_lists, bin_widths)
    def test_assign_interval_matches_scalar(self, values, width):
        """Interleaved cluster builds stay in lockstep: same joined
        index per interval, same final (hubs, counts) state."""
        hubs_s: list[float] = []
        counts_s: list[int] = []
        hubs_a: list[float] = []
        counts_a: list[int] = []
        for value in values:
            index_s = assign_interval(hubs_s, counts_s, value, width)
            index_a = assign_interval_array(hubs_a, counts_a, value, width)
            assert index_a == index_s
        assert hubs_a == hubs_s
        assert counts_a == counts_s

    @given(interval_lists, bin_widths)
    def test_divergences_match_scalar(self, values, width):
        histogram = build_histogram(values, width)
        reference = periodic_reference(histogram) if histogram.bins else {}
        assert jeffrey_divergence_array(histogram, reference) == \
            jeffrey_divergence(histogram, reference)
        assert l1_distance_array(histogram, reference) == \
            l1_distance(histogram, reference)

    @given(interval_lists, bin_widths, positive_floats)
    def test_divergences_match_on_reference_only_hubs(
        self, values, width, extra_mass
    ):
        """A reference hub absent from the observed histogram exercises
        the alignment rows the periodic reference never produces."""
        histogram = build_histogram(values, width)
        hubs = {b.hub for b in histogram.bins}
        foreign = max(hubs, default=0.0) + 3.0 * width + 1.0
        reference = dict(
            periodic_reference(histogram) if histogram.bins else {}
        )
        reference[foreign] = extra_mass
        assert jeffrey_divergence_array(histogram, reference) == \
            jeffrey_divergence(histogram, reference)
        assert l1_distance_array(histogram, reference) == \
            l1_distance(histogram, reference)

    @given(st.lists(timestamp_series, min_size=0, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_automated_pairs_matches_scalar(self, series_list):
        detector = AutomationDetector()
        series = [
            ((f"host{i}", f"d{i}.example"), times)
            for i, times in enumerate(series_list)
        ]
        scalar = []
        for (host, domain), times in series:
            verdict = detector.test_series(host, domain, times)
            if verdict.automated:
                scalar.append(verdict)
        assert automated_pairs_batch(detector, series) == scalar


# A small pool of hosts/domains makes (host, domain) collisions -- the
# interesting merge cases -- frequent within a 60-event day.
_HOSTS = ("10.1.0.1", "10.1.0.2", "10.1.0.3")
_DOMAINS = ("a.example", "b.example", "c.example", "d.example")
_IPS = ("198.51.100.7", "203.0.113.9", "")

event_rows = st.lists(
    st.tuples(
        st.one_of(fine_times, coarse_times),
        st.sampled_from(_HOSTS),
        st.sampled_from(_DOMAINS),
        st.sampled_from(_IPS),
    ),
    min_size=0,
    max_size=60,
)


def _assert_same_traffic(left: DailyTraffic, right: DailyTraffic) -> None:
    assert dict(left.series()) == dict(right.series())
    assert left.hosts_by_domain == right.hosts_by_domain
    assert left.domains_by_host == right.domains_by_host
    assert left.resolved_ips == right.resolved_ips


class TestColumnarIngestParity:
    @given(event_rows, st.integers(min_value=1, max_value=9), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_chunked_ingest_matches_single_pass(
        self, rows, chunk, batch_first
    ):
        """One bulk ingest == per-record ingest == mixed chunked ingest
        (alternating columnar batches and scalar records)."""
        whole = DailyTraffic(0)
        whole.ingest([Connection(*row) for row in rows])
        whole.finalize()

        single = DailyTraffic(0)
        for row in rows:
            single.ingest(Connection(*row))
        single.finalize()

        mixed = DailyTraffic(0)
        for index, lo in enumerate(range(0, len(rows), chunk)):
            part = rows[lo:lo + chunk]
            if batch_first == (index % 2 == 0):
                mixed.ingest(ConnectionBatch(
                    [r[0] for r in part],
                    [r[1] for r in part],
                    [r[2] for r in part],
                    [r[3] for r in part],
                ))
            else:
                for row in part:
                    mixed.ingest(Connection(*row))
        mixed.finalize()

        _assert_same_traffic(whole, single)
        _assert_same_traffic(whole, mixed)

    def test_finalize_paths_agree_across_small_span_boundary(self):
        """Spans above ``_SMALL_SPAN`` group via NumPy lexsort, spans
        below via the pure-Python dict pass -- one day built each way
        must be identical."""
        rng = random.Random(20150614)
        n = _SMALL_SPAN + 512
        rows = [
            (
                float(rng.randrange(0, 86_400)),
                rng.choice(_HOSTS),
                rng.choice(_DOMAINS),
                rng.choice(_IPS),
            )
            for _ in range(n)
        ]

        lexsorted = DailyTraffic(0)
        lexsorted.ingest(ConnectionBatch(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
        ))
        lexsorted.finalize()

        grouped = DailyTraffic(0)
        for lo in range(0, n, 256):
            grouped.ingest([Connection(*row) for row in rows[lo:lo + 256]])
        grouped.finalize()

        _assert_same_traffic(lexsorted, grouped)

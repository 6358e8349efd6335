"""Unit tests for Algorithm 1 (belief propagation)."""

import pytest

from repro.config import BeliefPropagationConfig
from repro.core import belief_propagation


def run_bp(
    seed_hosts,
    seed_domains,
    dom_host,
    host_rdom,
    cc=frozenset(),
    scores=None,
    **config_kwargs,
):
    scores = scores or {}
    config = BeliefPropagationConfig(**config_kwargs) if config_kwargs else None
    return belief_propagation(
        set(seed_hosts),
        set(seed_domains),
        dom_host={d: set(h) for d, h in dom_host.items()},
        host_rdom={h: set(d) for h, d in host_rdom.items()},
        detect_cc=lambda dom: dom in cc,
        score_frontier=lambda frontier, new: {
            dom: scores.get(dom, 0.0) for dom in frontier
        },
        config=config,
    )


class TestSeeding:
    def test_seed_domains_in_output_sets(self):
        result = run_bp(["h1"], ["seed.ru"], {"seed.ru": ["h1"]}, {"h1": []})
        assert "seed.ru" in result.domains
        assert result.detected_domains == []  # seeds are not detections

    def test_seed_hosts_retained(self):
        result = run_bp(["h1"], [], {}, {"h1": []})
        assert result.hosts == {"h1"}


class TestCcPhase:
    def test_cc_detected_first(self):
        result = run_bp(
            ["h1"], [],
            dom_host={"cc.ru": ["h1", "h2"]},
            host_rdom={"h1": ["cc.ru"], "h2": []},
            cc={"cc.ru"},
        )
        assert "cc.ru" in result.domains
        assert result.detections[0].reason == "cc"
        assert "h2" in result.hosts  # contact expansion

    def test_cc_preempts_similarity(self):
        """When C&C is found, no similarity labeling happens that iteration."""
        result = run_bp(
            ["h1"], [],
            dom_host={"cc.ru": ["h1"], "sim.ru": ["h1"]},
            host_rdom={"h1": ["cc.ru", "sim.ru"]},
            cc={"cc.ru"},
            scores={"sim.ru": 0.99},
        )
        first_iter = result.trace[0]
        assert first_iter.cc_detected == ("cc.ru",)
        assert "sim.ru" not in first_iter.labeled


class TestSimilarityPhase:
    def test_argmax_labeled_when_above_threshold(self):
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"], "b.ru": ["h1"]},
            host_rdom={"h1": ["a.ru", "b.ru"]},
            scores={"a.ru": 0.9, "b.ru": 0.6},
            similarity_threshold=0.5,
        )
        assert result.detections[1].domain == "a.ru"  # index 0 is the seed
        assert "b.ru" in result.domains  # labeled on a later iteration

    def test_below_threshold_stops(self):
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"]},
            host_rdom={"h1": ["a.ru"]},
            scores={"a.ru": 0.2},
            similarity_threshold=0.5,
        )
        assert "a.ru" not in result.domains
        assert result.trace[-1].labeled == ()

    def test_one_domain_per_iteration(self):
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"], "b.ru": ["h1"]},
            host_rdom={"h1": ["a.ru", "b.ru"]},
            scores={"a.ru": 0.9, "b.ru": 0.9},
        )
        labeled_per_iter = [len(t.labeled) for t in result.trace if t.labeled]
        assert all(n == 1 for n in labeled_per_iter)

    def test_deterministic_tie_break(self):
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"], "b.ru": ["h1"]},
            host_rdom={"h1": ["a.ru", "b.ru"]},
            scores={"a.ru": 0.9, "b.ru": 0.9},
        )
        # Ties break toward the lexicographically larger key via max();
        # what matters is determinism across runs.
        again = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"], "b.ru": ["h1"]},
            host_rdom={"h1": ["a.ru", "b.ru"]},
            scores={"a.ru": 0.9, "b.ru": 0.9},
        )
        assert [d.domain for d in result.detections] == [
            d.domain for d in again.detections
        ]


class TestExpansion:
    def test_host_expansion_pulls_new_rare_domains(self):
        """Labeling a domain adds its hosts; their rare domains join R."""
        result = run_bp(
            ["h1"], [],
            dom_host={"cc.ru": ["h1", "h2"], "second.ru": ["h2"]},
            host_rdom={"h1": ["cc.ru"], "h2": ["second.ru"]},
            cc={"cc.ru"},
            scores={"second.ru": 0.9},
        )
        assert "second.ru" in result.domains
        assert result.hosts == {"h1", "h2"}

    def test_transitive_community_discovery(self):
        """Figure 8 shape: seed -> host -> sibling domains -> more hosts."""
        result = run_bp(
            ["h5"], ["seed.ru"],
            dom_host={
                "seed.ru": ["h5"],
                "ramdo1.org": ["h5", "h6"],
                "ramdo2.org": ["h6", "h7"],
            },
            host_rdom={
                "h5": ["ramdo1.org"],
                "h6": ["ramdo1.org", "ramdo2.org"],
                "h7": ["ramdo2.org"],
            },
            scores={"ramdo1.org": 0.9, "ramdo2.org": 0.8},
        )
        assert result.domains == {"seed.ru", "ramdo1.org", "ramdo2.org"}
        assert result.hosts == {"h5", "h6", "h7"}


class TestTermination:
    def test_max_iterations_respected(self):
        domains = {f"d{i}.ru": ["h1"] for i in range(20)}
        domains["seed.ru"] = ["h1"]
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host=domains,
            host_rdom={"h1": [d for d in domains if d != "seed.ru"]},
            scores={d: 0.9 for d in domains},
            max_iterations=3,
        )
        assert result.iterations == 3
        assert len(result.detected_domains) == 3

    def test_stops_when_frontier_empty(self):
        result = run_bp(["h1"], [], {}, {"h1": []})
        assert result.iterations == 1
        assert result.detected_domains == []

    def test_no_infinite_loop_on_cc_everywhere(self):
        result = run_bp(
            ["h1"], [],
            dom_host={"a.ru": ["h1"], "b.ru": ["h1"]},
            host_rdom={"h1": ["a.ru", "b.ru"]},
            cc={"a.ru", "b.ru"},
            max_iterations=10,
        )
        assert result.domains == {"a.ru", "b.ru"}
        assert result.iterations <= 10


class TestProvenance:
    def test_trace_records_frontier_and_scores(self):
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"]},
            host_rdom={"h1": ["a.ru"]},
            scores={"a.ru": 0.77},
        )
        first = result.trace[0]
        assert first.frontier_size == 1
        assert first.top_score == pytest.approx(0.77)

    def test_graph_matches_result_sets(self):
        result = run_bp(
            ["h1"], [],
            dom_host={"cc.ru": ["h1", "h2"]},
            host_rdom={"h1": ["cc.ru"], "h2": []},
            cc={"cc.ru"},
        )
        assert set(result.graph.hosts) == result.hosts
        assert set(result.graph.domains) == result.domains

    def test_detection_order_is_suspiciousness_order(self):
        result = run_bp(
            ["h1"], ["seed.ru"],
            dom_host={"seed.ru": ["h1"], "a.ru": ["h1"], "b.ru": ["h1"]},
            host_rdom={"h1": ["a.ru", "b.ru"]},
            scores={"a.ru": 0.9, "b.ru": 0.6},
            similarity_threshold=0.5,
        )
        assert result.detected_domains == ["a.ru", "b.ru"]

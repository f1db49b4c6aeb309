import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpidiag.errors import ConfigError
from kpidiag.forest import ForestModel, Hyperparams, TargetKind, TreeNode, parse_text, train
from kpidiag.model import KpiKind, KpiSpec, Predicate, Rule, canonical_key
from kpidiag.rules import (
    annotate_impacts,
    deduplicate,
    extract_rules,
    filter_negative,
    resolve_scoring,
)

from conftest import make_table
from oracles import deduplicate as oracle_deduplicate

LAT = KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=5.0)
STATUS = KpiSpec(column="Status", kind=KpiKind.BINARY, positive_label="fail")
METRIC = resolve_scoring("metric")


def rule_of(correlated, scope=(), score=1.0, count=10):
    return Rule(
        correlated_predicate=correlated,
        scope_predicates=tuple(scope),
        correlation_score=score,
        request_count=count,
    )


def one_split_score(scoring: str, node: TreeNode) -> float | None:
    """The correlation score extract_rules gives a tree of one split node,
    None when it yields no rule."""
    model = ForestModel([node], TargetKind.REGRESSION)
    rules = extract_rules(model, resolve_scoring(scoring))
    return rules[0].correlation_score if rules else None


class TestScoring:
    def test_volume_weighted(self):
        assert resolve_scoring("volume_weighted")(1000, 4.0) == 4000.0

    def test_metric_only(self):
        assert resolve_scoring("metric")(1000, 0.93) == 0.93

    def test_zero_metric_scores_zero(self):
        assert resolve_scoring("volume_weighted")(123, 0.0) == 0.0
        assert resolve_scoring("metric")(123, 0.0) == 0.0

    def test_expression_escape_hatch(self):
        f = resolve_scoring("row_count * metric ** 2")
        assert f(10, 3.0) == 90.0

    def test_resolve_builtin_and_expression(self):
        assert resolve_scoring("metric")(7, 2.0) == 2.0
        assert resolve_scoring("volume_weighted")(7, 2.0) == 14.0
        assert resolve_scoring("row_count * metric")(7, 2.0) == 14.0

    def test_expression_rejects_anything_else(self):
        for bad in ("__import__('os')", "metric.x", "f(1)", "unknown + 1", "'s'"):
            with pytest.raises(ConfigError):
                resolve_scoring(bad)


class TestCorrelationScore:
    def test_probability_delta(self):
        node = TreeNode(
            row_count=200,
            metric=0.5,
            split=Predicate.equals("X", "a"),
            left=TreeNode(100, 0.9),
            right=TreeNode(100, 0.1),
        )
        assert one_split_score("metric", node) == pytest.approx(0.8)

    def test_identical_children(self):
        node = TreeNode(
            row_count=20,
            metric=0.5,
            split=Predicate.equals("X", "a"),
            left=TreeNode(10, 0.5),
            right=TreeNode(10, 0.5),
        )
        assert one_split_score("metric", node) is None

    def test_volume_weighted_delta(self):
        node = TreeNode(
            row_count=1000,
            metric=9.5,
            split=Predicate.greater_than("Lat", 10.0),
            left=TreeNode(100, 50.0),
            right=TreeNode(900, 5.0),
        )
        assert one_split_score("volume_weighted", node) == pytest.approx(500.0)


class TestExtractRules:
    def test_single_split_tree_one_rule_empty_scope(self):
        model = parse_text(
            "TREE 0 Classification\nX=a\t20\t0.5\n  LEAF\t10\t0.9\n  LEAF\t10\t0.1\n"
        )
        (rule,) = extract_rules(model, METRIC)
        assert rule.correlated_predicate == Predicate.equals("X", "a")
        assert rule.scope_predicates == ()
        assert rule.correlation_score == pytest.approx(0.8)
        assert rule.request_count == 10

    def test_depth_two_scope_is_the_oriented_path(self):
        model = parse_text(
            "TREE 0 Classification\n"
            "X=a\t40\t0.3\n"
            "  Y>1.5\t20\t0.5\n"
            "    LEAF\t10\t0.9\n"
            "    LEAF\t10\t0.1\n"
            "  LEAF\t20\t0.1\n"
        )
        rules = extract_rules(model, METRIC)
        assert len(rules) == 2
        deeper = next(r for r in rules if r.scope_predicates)
        assert deeper.scope_predicates == (Predicate.equals("X", "a"),)
        assert deeper.correlated_predicate == Predicate.greater_than("Y", 1.5)

    def test_orientation_flips_toward_the_degraded_side(self):
        model = parse_text(
            "TREE 0 Classification\nX=a\t20\t0.5\n  LEAF\t10\t0.1\n  LEAF\t10\t0.9\n"
        )
        (rule,) = extract_rules(model, METRIC)
        assert rule.correlated_predicate == Predicate.equals("X", "a", polarity=False)
        assert rule.correlation_score == pytest.approx(0.8)
        assert rule.request_count == 10

    def test_scope_along_the_false_branch_is_inverted(self):
        model = parse_text(
            "TREE 0 Classification\n"
            "X=a\t40\t0.3\n"
            "  LEAF\t20\t0.1\n"
            "  Y>1.5\t20\t0.5\n"
            "    LEAF\t10\t0.9\n"
            "    LEAF\t10\t0.1\n"
        )
        rules = extract_rules(model, METRIC)
        deeper = next(r for r in rules if r.scope_predicates)
        assert deeper.scope_predicates == (Predicate.equals("X", "a", polarity=False),)

    def test_tied_children_yield_no_rule(self):
        model = parse_text(
            "TREE 0 Classification\nX=a\t20\t0.5\n  LEAF\t10\t0.5\n  LEAF\t10\t0.5\n"
        )
        assert extract_rules(model, METRIC) == []

    def test_incident_shape_scope_conjunction(self):
        # deep path: RequestType:Offbox ∧ LocDataCenter:AN ∧ CrossDataCenter:true
        # with the rack equality as the correlated predicate at the bottom
        model = parse_text(
            "TREE 0 Regression\n"
            "RequestType=Offbox\t1000\t50.0\n"
            "  LocDataCenter=AN\t400\t110.0\n"
            "    CrossDataCenter=true\t200\t200.0\n"
            "      Rack=AN150C01\t100\t380.0\n"
            "        LEAF\t50\t740.0\n"
            "        LEAF\t50\t20.0\n"
            "      LEAF\t100\t20.0\n"
            "    LEAF\t200\t20.0\n"
            "  LEAF\t600\t10.0\n"
        )
        rules = extract_rules(model, METRIC)
        rack = next(r for r in rules if r.key() == "Rack=AN150C01")
        assert [p.text() for p in rack.scope_predicates] == [
            "RequestType:Offbox",
            "LocDataCenter:AN",
            "CrossDataCenter:true",
        ]

    def test_every_emitted_score_is_positive(self, rng):
        table = make_table(
            {
                "A": ("cat", [str(v) for v in rng.integers(0, 4, 300)]),
                "B": ("cont", list(rng.normal(size=300))),
            }
        )
        labels = rng.random(300) < 0.3
        model = train(table, labels, Hyperparams(num_trees=5, min_rows_in_leaf=10, rng_seed=3))
        for rule in extract_rules(model, METRIC):
            assert rule.correlation_score > 0


class TestDeduplicate:
    def test_max_score_survives(self):
        p = Predicate.equals("X", "a")
        out = deduplicate([rule_of(p, score=5.0), rule_of(p, score=9.0)])
        assert len(out) == 1
        assert out[0].correlation_score == 9.0

    def test_distinct_keys_both_survive(self):
        out = deduplicate(
            [rule_of(Predicate.equals("X", "a")), rule_of(Predicate.equals("X", "b"))]
        )
        assert len(out) == 2

    def test_continuous_thresholds_collapse_to_one_key(self):
        out = deduplicate(
            [
                rule_of(Predicate.greater_than("Lat", 568.0), score=2.0),
                rule_of(Predicate.greater_than("Lat", 16145.0), score=3.0),
            ]
        )
        assert len(out) == 1
        assert out[0].correlated_predicate.value == 16145.0

    def test_tie_prefers_larger_request_count(self):
        p = Predicate.equals("X", "a")
        out = deduplicate([rule_of(p, score=5.0, count=10), rule_of(p, score=5.0, count=90)])
        assert out[0].request_count == 90

    def test_count_equals_distinct_keys(self, rng):
        preds = [Predicate.equals("X", str(v)) for v in rng.integers(0, 7, 60)]
        rules = [rule_of(p, score=float(rng.random())) for p in preds]
        out = deduplicate(rules)
        assert len(out) == len({r.key() for r in rules})

    def test_fifty_identical_trees_one_rule(self):
        table = make_table({"Good": ("cat", ["p"] * 10 + ["n"] * 10)})
        labels = np.array([True] * 10 + [False] * 10)
        model = train(
            table,
            labels,
            Hyperparams(num_trees=50, feature_sample_ratio=1.0, rng_seed=0),
        )
        candidates = extract_rules(model, METRIC)
        assert len(candidates) == 50
        assert len(deduplicate(candidates)) == 1


# a few values of each, so that drawn rules often tie on score, count and scope
_PREDICATES = [Predicate.equals("X", "a"), Predicate.equals("X", "b"), Predicate.equals("X", "a", False),
               Predicate.greater_than("T", 1.0), Predicate.greater_than("T", 2.0)]
_SCOPES = [(), (Predicate.equals("S", "u"),), (Predicate.equals("S", "v"),),
           (Predicate.equals("S", "u"), Predicate.greater_than("T", 1.0, False))]
_DRAWN_RULES = st.lists(
    st.tuples(st.sampled_from(_PREDICATES), st.sampled_from(_SCOPES), st.sampled_from([1.0, 2.0]), st.sampled_from([5, 10])),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(drawn=_DRAWN_RULES)
def test_deduplicate_picks_the_winner_the_one_pass_loop_picks(drawn):
    # full_row_count tells apart rules that tie on everything deduplicate reads
    rules = [Rule(p, scope, score, count, full_row_count=i) for i, (p, scope, score, count) in enumerate(drawn)]
    assert deduplicate(rules) == oracle_deduplicate(rules)


class TestFilterNegative:
    def test_inverted_equality_dropped(self):
        kept = filter_negative([rule_of(Predicate.equals("Region", "NA", polarity=False))])
        assert kept == []

    def test_thresholds_kept_in_both_directions(self):
        rules = [
            rule_of(Predicate.greater_than("RoutingLatency", 568.0)),
            rule_of(Predicate.greater_than("RoutingLatency", 568.0, polarity=False)),
        ]
        assert filter_negative(rules) == rules

    def test_empty_input(self):
        assert filter_negative([]) == []


def impact(rule, table, kpi):
    (annotated,) = annotate_impacts([rule], table, kpi)
    return annotated.performance_impact


class TestComputeImpact:
    def test_continuous_subset_versus_global(self):
        # one matching row at 4424ms against a global mean of 5ms
        others = [576.0 / 999.0] * 999
        table = make_table(
            {
                "Rack": ("cat", ["bad"] + ["ok"] * 999),
                "Lat": ("cont", [4424.0] + others),
            },
            kpi="Lat",
        )
        rule = rule_of(Predicate.equals("Rack", "bad"))
        assert impact(rule, table, LAT) == pytest.approx(4419.0, rel=1e-9)

    def test_rule_matching_everything_has_zero_impact(self):
        table = make_table(
            {"Rack": ("cat", ["a"] * 4), "Lat": ("cont", [1.0, 2.0, 3.0, 4.0])},
            kpi="Lat",
        )
        assert impact(rule_of(Predicate.equals("Rack", "a")), table, LAT) == 0.0

    def test_binary_rate_delta(self):
        status = ["fail"] * 9 + ["success"] + ["fail"] + ["success"] * 89
        rack = ["bad"] * 10 + ["ok"] * 90
        table = make_table(
            {"Rack": ("cat", rack), "Status": ("cat", status)}, kpi="Status"
        )
        rule = rule_of(Predicate.equals("Rack", "bad"))
        assert impact(rule, table, STATUS) == pytest.approx(0.8)

    def test_no_match_is_stale(self):
        table = make_table(
            {"Rack": ("cat", ["a", "b"]), "Lat": ("cont", [1.0, 2.0])}, kpi="Lat"
        )
        rule = rule_of(Predicate.equals("Rack", "zzz"))
        assert impact(rule, table, LAT) is None
        (annotated,) = annotate_impacts([rule], table, LAT)
        assert annotated.stale is True
        assert annotated.performance_impact is None
        assert annotated.full_row_count == 0

    def test_scope_narrows_the_subset(self):
        table = make_table(
            {
                "Region": ("cat", ["NA", "NA", "EU", "EU"]),
                "Rack": ("cat", ["r1", "r2", "r1", "r2"]),
                "Lat": ("cont", [10.0, 2.0, 4.0, 4.0]),
            },
            kpi="Lat",
        )
        rule = rule_of(
            Predicate.equals("Rack", "r1"), scope=[Predicate.equals("Region", "NA")]
        )
        # subset = {row 0} (10.0) vs global mean 5.0
        assert impact(rule, table, LAT) == pytest.approx(5.0)


class TestOrientationSoundness:
    def test_degraded_side_scores_at_least_the_other(self, rng):
        table = make_table(
            {
                "A": ("cat", [str(v) for v in rng.integers(0, 5, 400)]),
                "B": ("cont", list(rng.lognormal(size=400))),
            }
        )
        y = rng.lognormal(size=400) + (table.codes("A") == 2) * 10.0
        model = train(table, y, Hyperparams(num_trees=6, min_rows_in_leaf=10, rng_seed=8))
        for f in map(resolve_scoring, ("metric", "volume_weighted")):
            # independently walk the trees: the emitted rule set must be the
            # higher-scoring orientation at every non-tied split node
            expected = []
            for tree in model.trees:
                stack = [tree]
                while stack:
                    node = stack.pop()
                    if node.is_leaf:
                        continue
                    sl = f(node.left.row_count, node.left.metric)
                    sr = f(node.right.row_count, node.right.metric)
                    if sl > sr:
                        expected.append(
                            (canonical_key(node.split), sl - sr, node.left.row_count)
                        )
                    elif sr > sl:
                        expected.append(
                            (
                                canonical_key(node.split.flip()),
                                sr - sl,
                                node.right.row_count,
                            )
                        )
                    stack.extend((node.left, node.right))
            got = [
                (r.key(), r.correlation_score, r.request_count)
                for r in extract_rules(model, f)
            ]
            assert sorted(got) == sorted(expected)
            assert all(score > 0 for _, score, _ in got)


def test_planted_fault_recovered_across_seeds():
    planted_key = "A=c3"
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 4000
        a = rng.integers(0, 8, n)
        b = rng.integers(0, 5, n)
        y = rng.lognormal(size=n)
        y[a == 3] += 25.0
        table = make_table(
            {
                "A": ("cat", [f"c{v}" for v in a]),
                "B": ("cat", [f"c{v}" for v in b]),
            }
        )
        model = train(
            table, y, Hyperparams(num_trees=8, min_rows_in_leaf=40, rng_seed=seed)
        )
        mined = filter_negative(deduplicate(extract_rules(model, METRIC)))
        assert mined, f"seed {seed}: nothing extracted"
        if mined[0].key() == planted_key:
            hits += 1
    assert hits == 20

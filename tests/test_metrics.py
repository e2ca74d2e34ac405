import math
import random
import time
from functools import lru_cache
from itertools import permutations

import pytest

from geobench import EvalReport, MetricsConfig
from geobench.corpus import Document, GeoPoint, GoldToponym
from geobench.geoparser import PredictedToponym
from geobench.metrics import (
    accuracy_at_threshold,
    align,
    auc_distance,
    build_report,
    distance_errors,
    geodesic_distance,
    mean_median,
    pool_outcomes,
    score_document,
)
from helpers import reference_align_overlap

# ---------------------------------------------------------------------------
# independent references


def ref_haversine(a, b, radius=6371.0088):
    # atan2 form, written separately from the implementation
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    s = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return radius * 2 * math.atan2(math.sqrt(s), math.sqrt(max(0.0, 1.0 - s)))


def ref_max_matching_size(gold_spans, pred_spans):
    # exhaustive search over assignments of gold spans to overlapping preds
    overlaps = [
        [j for j, p in enumerate(pred_spans) if g[0] < p[1] and p[0] < g[1]] for g in gold_spans
    ]

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(overlaps):
            return 0
        top = best(i + 1, used)
        for j in overlaps[i]:
            if j not in used:
                top = max(top, 1 + best(i + 1, used | frozenset([j])))
        return top

    return best(0, frozenset())


def random_spans(rng, max_spans, text_len=120):
    spans = set()
    for _ in range(rng.randrange(0, max_spans + 1)):
        start = rng.randrange(0, text_len - 1)
        end = start + rng.randrange(1, 12)
        spans.add((start, min(end, text_len)))
    return sorted(spans)


def make_gold(spans, rng, with_point_prob=0.85):
    out = []
    for start, end in spans:
        point = None
        if rng.random() < with_point_prob:
            point = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        out.append(GoldToponym(start, end, "x" * (end - start), point=point))
    return out


def make_pred(spans, rng, with_point_prob=0.85):
    out = []
    for start, end in spans:
        point = None
        if rng.random() < with_point_prob:
            point = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        out.append(PredictedToponym(start, end, "x" * (end - start), point=point))
    return out


# ---------------------------------------------------------------------------
# alignment


class TestAlignExact:
    def test_identical_spans(self):
        m = align([GoldToponym(10, 16, "x")], [PredictedToponym(10, 16, "x")])
        assert m.pairs == ((0, 0),)
        assert m.unmatched_gold == ()
        assert m.unmatched_pred == ()

    def test_near_miss_not_paired(self):
        m = align([GoldToponym(10, 16, "x")], [PredictedToponym(8, 16, "x")], "exact")
        assert m.pairs == ()
        assert m.unmatched_gold == (0,)
        assert m.unmatched_pred == (0,)

    def test_unsorted_raises(self):
        gold = [GoldToponym(10, 16, "x"), GoldToponym(0, 5, "y")]
        with pytest.raises(ValueError, match="not sorted"):
            align(gold, [])

    def test_cardinality_symmetry(self):
        rng = random.Random(3)
        for _ in range(100):
            g_spans, p_spans = random_spans(rng, 8), random_spans(rng, 8)
            gold, pred = make_gold(g_spans, rng), make_pred(p_spans, rng)
            ab = align(gold, pred, "exact")
            # swapping sides transposes pairs and swaps the unmatched lists
            gold2 = [GoldToponym(p.start, p.end, p.name) for p in pred]
            pred2 = [PredictedToponym(g.start, g.end, g.name) for g in gold]
            ba = align(gold2, pred2, "exact")
            assert sorted((j, i) for i, j in ab.pairs) == sorted(ba.pairs)
            assert ab.unmatched_gold == ba.unmatched_pred
            assert ab.unmatched_pred == ba.unmatched_gold


class TestAlignOverlap:
    def test_overlapping_spans_pair(self):
        m = align([GoldToponym(10, 16, "x")], [PredictedToponym(8, 16, "x")], "overlap")
        assert m.pairs == ((0, 0),)

    def test_touching_spans_do_not_pair(self):
        m = align([GoldToponym(0, 5, "x")], [PredictedToponym(5, 9, "y")], "overlap")
        assert m.pairs == ()

    def test_maximum_cardinality_against_exhaustive_search(self):
        rng = random.Random(5)
        for _ in range(200):
            g_spans, p_spans = random_spans(rng, 12), random_spans(rng, 12)
            m = align(make_gold(g_spans, rng), make_pred(p_spans, rng), "overlap")
            assert len(m.pairs) == ref_max_matching_size(tuple(g_spans), tuple(p_spans))
            # one-to-one over genuinely overlapping spans
            assert len({i for i, _ in m.pairs}) == len(m.pairs)
            assert len({j for _, j in m.pairs}) == len(m.pairs)
            for i, j in m.pairs:
                assert g_spans[i][0] < p_spans[j][1] and p_spans[j][0] < g_spans[i][1]

    def test_lexicographically_smallest_among_maximum(self):
        # full enumeration of all maximum matchings on small instances
        rng = random.Random(9)
        for _ in range(60):
            g_spans, p_spans = random_spans(rng, 5, 40), random_spans(rng, 5, 40)
            gold, pred = make_gold(g_spans, rng), make_pred(p_spans, rng)
            got = align(gold, pred, "overlap").pairs
            n, k = len(g_spans), len(p_spans)
            best = None
            for size in range(min(n, k), -1, -1):
                candidates = []
                for gsub in permutations(range(n), size):
                    for psub in permutations(range(k), size):
                        pairs = sorted(zip(gsub, psub))
                        if all(g_spans[i][0] < p_spans[j][1] and p_spans[j][0] < g_spans[i][1] for i, j in pairs):
                            candidates.append(tuple(pairs))
                if candidates:
                    best = min(candidates)
                    break
                if size == 0:
                    best = ()
            assert got == best

    def test_matches_reference_on_random_layouts(self):
        # endpoints drawn from a few breakpoints make touching, nested,
        # identical and empty spans common; predictions may repeat a span,
        # gold may not
        rng = random.Random(13)
        seen = dict.fromkeys(("empty side", "nested", "touching", "duplicate pred", "empty span"), 0)
        for _ in range(20_000):
            points = sorted(rng.sample(range(40), rng.randrange(2, 10)))

            def span():
                return tuple(sorted(rng.choices(points, k=2)))

            g_spans = sorted({span() for _ in range(rng.randrange(0, 10))})
            p_spans = sorted(span() for _ in range(rng.randrange(0, 10)))
            gold = [GoldToponym(s, e, "x" * (e - s)) for s, e in g_spans]
            pred = [PredictedToponym(s, e, "x" * (e - s)) for s, e in p_spans]
            assert list(align(gold, pred, "overlap").pairs) == reference_align_overlap(gold, pred)
            spans = g_spans + p_spans
            seen["empty side"] += not g_spans or not p_spans
            seen["nested"] += any(a[0] <= b[0] and b[1] <= a[1] and a != b for a in spans for b in spans)
            seen["touching"] += any(a[1] == b[0] for a in spans for b in spans)
            seen["duplicate pred"] += len(set(p_spans)) < len(p_spans)
            seen["empty span"] += any(s == e for s, e in spans)
        assert min(seen.values()) > 1_000, seen


def within_budget(gold_spans, pred_spans, seconds=1.0):
    gold = [GoldToponym(s, e, "x" * (e - s)) for s, e in gold_spans]
    pred = [PredictedToponym(s, e, "x" * (e - s)) for s, e in pred_spans]
    start = time.perf_counter()
    pairs = align(gold, pred, "overlap").pairs
    assert time.perf_counter() - start < seconds
    return pairs


class TestAlignOverlapBounds:
    def test_chain_of_2000_pairs(self):
        gold = [(2 * i, 2 * i + 2) for i in range(2000)]
        pred = [(2 * i + 1, 2 * i + 3) for i in range(2000)]
        assert within_budget(gold, pred) == tuple((i, i) for i in range(2000))

    def test_dense_random_400_by_400(self):
        rng = random.Random(400)
        gold = set()
        while len(gold) < 400:
            start = rng.randrange(400)
            gold.add((start, start + rng.randrange(1, 30)))
        gold = sorted(gold)
        pred = sorted((s, s + rng.randrange(1, 30)) for s in (rng.randrange(400) for _ in range(400)))
        pairs = within_budget(gold, pred)
        assert len(pairs) > 350
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        for i, j in pairs:
            assert gold[i][0] < pred[j][1] and pred[j][0] < gold[i][1]

    def test_dense_block_beside_a_free_gold(self):
        # a gold that no maximum matching covers, far from a dense block
        # whose golds often need a second look at their candidates
        rng = random.Random(800)
        gold = set()
        while len(gold) < 800:
            start = rng.randrange(200)
            gold.add((start, start + rng.randrange(1, 60)))
        gold = sorted(gold) + [(10_000, 10_002), (10_001, 10_003)]
        pred = sorted((s, s + rng.randrange(1, 60)) for s in (rng.randrange(200) for _ in range(800)))
        pairs = within_budget(gold, pred + [(10_000, 10_003)])
        assert len(pairs) == 801 and pairs[-1] == (800, 800)

    def test_identical_and_nested_spans(self):
        assert within_budget([(3, 9)] * 500, [(3, 9)] * 250) == tuple((i, i) for i in range(250))
        nested_gold = [(i, 600 - i) for i in range(300)]
        nested_pred = [(i, 601 - i) for i in range(300)]
        assert within_budget(nested_gold, nested_pred) == tuple((i, i) for i in range(300))

    def test_chain_longer_than_the_recursion_limit(self):
        # one gold more than preds, so the last gold's search walks the whole chain
        gold = [(0, 1)] + [(2 * i + 1, 2 * i + 3) for i in range(1200)]
        pred = [(2 * i, 2 * i + 2) for i in range(1200)]
        assert within_budget(gold, pred) == tuple((i, i) for i in range(1200))


# ---------------------------------------------------------------------------
# recognition ratios


def recognition_report(gold_count, pred_count, matched):
    """The report of pooled recognition counts, with no distance to score."""
    return build_report(gold_count=gold_count, pred_count=pred_count, matched=matched, unresolved_matched=0, distances=[])


class TestPrecisionRecallF1:
    def test_direct_formula(self):
        report = recognition_report(4, 5, 3)
        assert (report.precision, report.recall) == (0.6, 0.75)
        assert report.f_score == pytest.approx(2 * 0.6 * 0.75 / 1.35)

    def test_perfect(self):
        report = recognition_report(2, 2, 2)
        assert (report.precision, report.recall, report.f_score) == (1.0, 1.0, 1.0)

    def test_no_predictions_warns(self):
        report = recognition_report(4, 0, 0)
        assert (report.precision, report.recall, report.f_score) == (0.0, 0.0, 0.0)
        assert report.warnings == ["precision: denominator is zero", "mean/median: no resolved pairs to score"]

    def test_accuracy(self):
        assert recognition_report(10, 4, 4).accuracy == 0.4
        assert recognition_report(1, 1, 1).accuracy == 1.0
        empty = recognition_report(0, 0, 0)
        assert empty.accuracy == 0.0
        assert empty.warnings[0] == "accuracy: denominator is zero"


# ---------------------------------------------------------------------------
# distances


LONDON = GeoPoint(51.5074, -0.1278)
PARIS = GeoPoint(48.8566, 2.3522)
# frozen from a 50-digit haversine evaluation at radius 6371.0088 km
LONDON_PARIS_KM = 343.55653488088361648656


class TestGeodesic:
    def test_identical_points_zero(self):
        assert geodesic_distance(PARIS, PARIS) == 0.0

    def test_london_paris(self):
        assert geodesic_distance(LONDON, PARIS) == pytest.approx(LONDON_PARIS_KM, abs=1e-9)

    def test_antipodal_arc(self):
        expected = math.pi * 6371.0088
        assert geodesic_distance(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_bounded_fuzz(self):
        rng = random.Random(23)
        bound = math.pi * 6371.0088
        for _ in range(500):
            a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            d = geodesic_distance(a, b)
            assert d == geodesic_distance(b, a)
            assert 0.0 <= d <= bound + 1e-9
            assert d == pytest.approx(ref_haversine(a, b), abs=1e-9)

    def test_radius_scales(self):
        assert geodesic_distance(GeoPoint(0, 0), GeoPoint(0, 90), radius_km=1.0) == pytest.approx(math.pi / 2)


class TestDistanceErrors:
    def test_identical_coordinates_zero(self):
        gold = [GoldToponym(0, 5, "x", point=PARIS)]
        pred = [PredictedToponym(0, 5, "x", point=PARIS)]
        errors = distance_errors(align(gold, pred), gold, pred)
        assert errors.distances == [0.0]
        assert errors.unresolved_matched == 0

    def test_unresolved_counted(self):
        gold = [GoldToponym(i * 10, i * 10 + 5, "x", point=PARIS) for i in range(3)]
        pred = [
            PredictedToponym(0, 5, "x", point=LONDON),
            PredictedToponym(10, 15, "x"),
            PredictedToponym(20, 25, "x", point=PARIS),
        ]
        errors = distance_errors(align(gold, pred), gold, pred)
        assert len(errors.distances) == 2
        assert errors.unresolved_matched == 1

    def test_missing_gold_point_skipped_with_warning(self):
        gold = [GoldToponym(0, 5, "x")]
        pred = [PredictedToponym(0, 5, "x", point=PARIS)]
        errors = distance_errors(align(gold, pred), gold, pred)
        assert errors.distances == []
        assert errors.missing_gold_points == 1
        earlier = ["1 invalid predictions dropped"]
        documents = [Document("d", "x" * 5, tuple(gold))]
        outcomes = [score_document(documents[0], pred, MetricsConfig())]
        report = pool_outcomes(outcomes, MetricsConfig(), "complete", earlier, "g", "c")
        assert report.warnings[:2] == [*earlier, "distance: 1 matched pairs skipped (gold annotation has no coordinates)"]
        assert earlier == ["1 invalid predictions dropped"]  # the caller's list is left as it was

    def test_against_haversine_oracle(self):
        rng = random.Random(29)
        gold, pred = [], []
        for i in range(10):
            g = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            p = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
            gold.append(GoldToponym(i * 10, i * 10 + 4, "x", point=g))
            pred.append(PredictedToponym(i * 10, i * 10 + 4, "x", point=p))
        errors = distance_errors(align(gold, pred), gold, pred)
        expected = [ref_haversine(g.point, p.point) for g, p in zip(gold, pred)]
        assert errors.distances == pytest.approx(expected, abs=1e-9)


class TestMeanMedian:
    def test_examples(self):
        mean, med = mean_median([0.0, 0.0, 48.676])
        assert mean == pytest.approx(16.225333333333333)
        assert med == 0.0
        assert mean_median([10.0]) == (10.0, 10.0)

    def test_empty_absent_with_warning(self):
        warnings = []
        assert mean_median([], warnings) == (None, None)
        assert warnings

    def test_even_length_median_averages(self):
        assert mean_median([1.0, 3.0, 5.0, 100.0])[1] == 4.0

    def test_mean_times_n_is_exact_sum(self):
        rng = random.Random(31)
        for _ in range(50):
            values = [rng.uniform(0, 20000) for _ in range(rng.randrange(1, 40))]
            mean, _ = mean_median(values)
            assert mean * len(values) == pytest.approx(math.fsum(values), abs=1e-9)

    def test_median_permutation_invariant(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        sorted_result = mean_median(sorted(values))[1]
        assert mean_median(values)[1] == sorted_result


class TestAccuracyAtThreshold:
    def test_fraction_inclusive(self):
        assert accuracy_at_threshold([0.0, 100.0, 200.0], 161.0) == pytest.approx(2 / 3)
        assert accuracy_at_threshold([161.0], 161.0) == 1.0
        assert accuracy_at_threshold([0.0, 0.0], 161.0) == 1.0

    def test_empty_absent(self):
        assert accuracy_at_threshold([], 161.0) is None

    def test_antitone_in_distances_monotone_in_threshold(self):
        rng = random.Random(37)
        for _ in range(100):
            values = [rng.uniform(0, 20000) for _ in range(rng.randrange(1, 15))]
            threshold = rng.uniform(1, 20000)
            base = accuracy_at_threshold(values, threshold)
            i = rng.randrange(len(values))
            bumped = values.copy()
            bumped[i] += rng.uniform(0, 5000)
            assert accuracy_at_threshold(bumped, threshold) <= base
            assert accuracy_at_threshold(values, threshold + rng.uniform(0, 5000)) >= base


class TestAuc:
    def test_all_zero_is_exactly_zero(self):
        assert auc_distance([0.0, 0.0, 0.0]) == 0.0

    def test_all_dmax_is_one(self):
        assert auc_distance([20039.0] * 4, 20039.0) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        # ln(101)/ln(20040), frozen from a 50-digit evaluation
        assert auc_distance([100.0], 20039.0) == pytest.approx(0.46591562736862069, abs=1e-12)

    def test_reference_formula(self):
        rng = random.Random(41)
        for _ in range(100):
            values = [rng.uniform(0, 20039) for _ in range(rng.randrange(1, 15))]
            expected = sum(math.log(1 + d) for d in values) / (len(values) * math.log(1 + 20039.0))
            assert auc_distance(values, 20039.0) == pytest.approx(expected, abs=1e-9)

    def test_clamps_above_dmax_with_warning(self):
        warnings = []
        assert auc_distance([30000.0], 20039.0, warnings) == pytest.approx(1.0, abs=1e-12)
        assert any("clamped" in w for w in warnings)

    def test_monotone_and_permutation_invariant(self):
        rng = random.Random(43)
        for _ in range(100):
            values = [rng.uniform(0, 20000) for _ in range(rng.randrange(1, 12))]
            base = auc_distance(values, 20039.0)
            i = rng.randrange(len(values))
            bumped = values.copy()
            bumped[i] = min(20039.0, bumped[i] + rng.uniform(0, 3000))
            assert auc_distance(bumped, 20039.0) >= base - 1e-15
            shuffled = values.copy()
            rng.shuffle(shuffled)
            assert auc_distance(shuffled, 20039.0) == pytest.approx(base, abs=1e-12)

    def test_empty_absent(self):
        assert auc_distance([], 20039.0) is None


class TestRatioProperties:
    def test_f_bounded_and_zero_iff_pr_zero(self):
        rng = random.Random(47)
        for _ in range(300):
            g_spans, p_spans = random_spans(rng, 10), random_spans(rng, 10)
            m = align(make_gold(g_spans, rng), make_pred(p_spans, rng))
            report = recognition_report(len(g_spans), len(p_spans), len(m.pairs))
            p, r, f = report.precision, report.recall, report.f_score
            for value in (p, r, f):
                assert 0.0 <= value <= 1.0
            assert f <= max(p, r) + 1e-12
            assert (f == 0.0) == (p * r == 0.0)


class TestBuildReport:
    def test_partial_suppresses_precision_metrics(self):
        report = build_report(
            gold_count=10, pred_count=8, matched=4, unresolved_matched=1, distances=[0.0, 50.0, 200.0],
            completeness="partial",
        )
        assert report.precision is None and report.recall is None and report.f_score is None
        assert report.accuracy == 0.4
        assert report.resolved == 3
        assert report.unresolved_matched == 1

    def test_complete_reports_accuracy_too(self):
        report = build_report(gold_count=4, pred_count=5, matched=3, unresolved_matched=0, distances=[])
        assert report.precision == 0.6
        assert report.recall == 0.75
        assert report.accuracy == 0.75
        assert report.mean_km is None and report.median_km is None
        assert report.acc_at_161 is None and report.auc is None
        assert any("mean/median" in w for w in report.warnings)

    def test_counts_invariants(self):
        report = build_report(gold_count=6, pred_count=6, matched=5, unresolved_matched=2, distances=[1.0, 2.0, 3.0])
        assert report.resolved + report.unresolved_matched == report.matched
        assert report.matched <= min(report.gold, report.predicted)

    def test_zero_denominators_warn_not_raise(self):
        report = build_report(gold_count=0, pred_count=0, matched=0, unresolved_matched=0, distances=[])
        assert report.precision == 0.0 and report.recall == 0.0 and report.f_score == 0.0
        assert report.warnings

    def test_serialization_keys_and_round_trip(self):
        report = build_report(
            gold_count=4, pred_count=5, matched=3, unresolved_matched=1, distances=[10.0, 170.0],
            geoparser="baseline", corpus="demo",
        )
        raw = report.to_dict()
        assert set(raw) == {
            "precision", "recall", "f_score", "accuracy", "mean", "median",
            "acc_at_161", "auc", "counts", "warnings", "geoparser", "corpus", "config",
        }
        assert raw["counts"] == {"gold": 4, "predicted": 5, "matched": 3, "resolved": 2, "unresolved_matched": 1}
        assert raw["config"]["d_max_km"] == 20039.0
        assert raw["config"]["aggregation"] == "micro"
        assert EvalReport.from_dict(raw) == report

    def test_threshold_from_config(self):
        config = MetricsConfig(threshold_km=100.0)
        report = build_report(
            gold_count=1, pred_count=1, matched=1, unresolved_matched=0, distances=[150.0], config=config
        )
        assert report.acc_at_161 == 0.0


class TestPoolOutcomes:
    @staticmethod
    def fold_by_hand(documents, predictions, config, completeness, warnings):
        # each document's alignment and distance errors first, then sums over them in document-id order
        ordered = sorted(documents, key=lambda d: d.id)
        matchings = [align(d.gold, predictions[d.id], config.match_mode) for d in ordered]
        errors = [
            distance_errors(m, d.gold, predictions[d.id], config.earth_radius_km) for m, d in zip(matchings, ordered)
        ]
        missing = sum(e.missing_gold_points for e in errors)
        if missing:
            warnings = [*warnings, f"distance: {missing} matched pairs skipped (gold annotation has no coordinates)"]
        return build_report(
            gold_count=sum(len(d.gold) for d in ordered),
            pred_count=sum(len(predictions[d.id]) for d in ordered),
            matched=sum(len(m.pairs) for m in matchings),
            unresolved_matched=sum(e.unresolved_matched for e in errors),
            distances=[km for e in errors for km in e.distances],
            config=config,
            completeness=completeness,
            warnings=warnings,
            geoparser="g",
            corpus="c",
        )

    @pytest.mark.parametrize("mode", ["exact", "overlap"])
    def test_equals_the_per_document_results_folded_by_hand(self, mode):
        rng = random.Random(41)
        for trial in range(60):
            documents, predictions = [], {}
            for i in range(rng.randrange(0, 8)):
                doc_id = f"d{rng.randrange(10**6)}-{i}"
                documents.append(Document(doc_id, "x" * 120, tuple(make_gold(random_spans(rng, 6), rng, 0.7))))
                predictions[doc_id] = make_pred(random_spans(rng, 6), rng, 0.7)
            config = MetricsConfig(match_mode=mode, threshold_km=rng.choice([50.0, 161.0, 5000.0]))
            completeness = rng.choice(["complete", "partial"])
            warnings = rng.choice([[], ["2 invalid predictions dropped"]])
            expected = self.fold_by_hand(documents, predictions, config, completeness, warnings).to_dict()
            rng.shuffle(documents)  # pooled in document-id order, whatever order the documents come in
            outcomes = [score_document(d, predictions[d.id], config) for d in documents]
            report = pool_outcomes(outcomes, config, completeness, warnings, "g", "c")
            assert report.to_dict() == expected, trial


class TestMetricsConfig:
    def test_defaults(self):
        config = MetricsConfig()
        assert config.threshold_km == 161.0
        assert config.d_max_km == 20039.0
        assert config.earth_radius_km == 6371.0088
        assert config.match_mode == "exact"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"match_mode": "fuzzy"},
            {"threshold_km": 0.0},
            {"d_max_km": 100.0},
            {"earth_radius_km": -1.0},
            {"threshold_km": True},
            {"d_max_km": math.inf},
            {"earth_radius_km": "1"},
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(ValueError):
            MetricsConfig(**kwargs)

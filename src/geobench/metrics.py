"""Span alignment and the eight evaluation metrics.

Recognition quality is scored with precision/recall/F1 (or accuracy alone
for partially annotated corpora); resolution quality with mean and median
great-circle error, the fraction of errors within a threshold, and a
log-scaled normalized area under the distance error curve. All functions
here are pure and safe for concurrent use.

Degenerate denominators never raise: they yield 0 (or an absent value) and
append a machine-readable note to the caller's warning list, so that long
benchmark runs always complete.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from statistics import fmean, median
from typing import NamedTuple

from .corpus import GeoPoint, is_positive_json_number

EARTH_RADIUS_KM = 6371.0088
DEFAULT_THRESHOLD_KM = 161.0
DEFAULT_D_MAX_KM = 20039.0

MATCH_MODES = ("exact", "overlap")

# Names the scoring code in the score-cache key. Bump it with any change to the bytes of a report: to align,
# distance_errors, build_report or the pooling in harness.evaluate. A stored score then misses instead of hiding
# the change. tests/test_harness.py pins it together with the report bytes of a fixture run.
SCORING_VERSION = 1

# The serialized report: the JSON key of each metric and the EvalReport field it holds, then the counts, which
# are nested under "counts" with their field names.
REPORT_METRICS = {
    "precision": "precision",
    "recall": "recall",
    "f_score": "f_score",
    "accuracy": "accuracy",
    "mean": "mean_km",
    "median": "median_km",
    "acc_at_161": "acc_at_161",
    "auc": "auc",
}
REPORT_COUNTS = ("gold", "predicted", "matched", "resolved", "unresolved_matched")


@dataclass(frozen=True, slots=True)
class MetricsConfig:
    match_mode: str = "exact"
    threshold_km: float = DEFAULT_THRESHOLD_KM
    d_max_km: float = DEFAULT_D_MAX_KM
    earth_radius_km: float = EARTH_RADIUS_KM

    def __post_init__(self):
        if self.match_mode not in MATCH_MODES:
            raise ValueError(f"match_mode must be one of {MATCH_MODES}, got {self.match_mode!r}")
        for name in ("threshold_km", "d_max_km", "earth_radius_km"):
            if not is_positive_json_number(value := getattr(self, name)):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        if not self.d_max_km > self.threshold_km:
            raise ValueError("d_max_km must be > threshold_km")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class Matching:
    """One-to-one alignment between gold and predicted span indices."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_gold: tuple[int, ...]
    unmatched_pred: tuple[int, ...]


class DistanceErrors(NamedTuple):
    distances: list[float]
    unresolved_matched: int
    missing_gold_points: int


def _check_sorted(spans, side: str) -> None:
    prev = None
    for s in spans:
        key = (s.start, s.end)
        if prev is not None and key < prev:
            raise ValueError(f"{side} spans not sorted ascending by (start, end)")
        prev = key


# Mate markers in the overlap matching: FREE is unmatched, TAKEN is out of
# the graph (a decided gold, or a pred already paired with one).
FREE = -1
TAKEN = -2


def _overlap_adjacency(gold, pred) -> list[list[int]]:
    # adj[g]: the preds intersecting gold g, ascending. One sweep over the
    # golds by start, with a cost linear in the spans plus the overlaps.
    starts = [p.start for p in pred]
    ends = [p.end for p in pred]
    adj = []
    active: list[int] = []  # preds starting at or before the gold, not yet ended
    after = 0  # the first pred starting after the gold does
    for g in gold:
        s, e = g.start, g.end
        if active:
            active = [j for j in active if ends[j] > s]
        while after < len(pred) and starts[after] <= s:
            if ends[after] > s:
                active.append(after)
            after += 1
        inside = after  # then the preds starting inside the gold, which all overlap it
        while inside < len(pred) and starts[inside] < e:
            inside += 1
        adj.append([*active, *range(after, inside)] if s < e else [j for j in active if starts[j] < e])
    return adj


def _alternating_path(start, adj, mate, seen, via, freed) -> int:
    # Iterative search from `start` for an alternating path to a free vertex
    # on the other side: leave each vertex by an unmatched edge, come back by
    # the matched one. `mate` indexes the other side; a vertex is free when
    # its mate is FREE or `freed`. Reached vertices go into `seen` (the
    # caller keeps it while failed searches stay failed) and `via` records
    # where each came from. Returns the free vertex, or FREE.
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            m = mate[y]
            if m == x or m == TAKEN or y in seen:
                continue
            seen.add(y)
            via[y] = x
            if m == FREE or m == freed:
                return y
            stack.append(m)
    return FREE


def _root(parent, x) -> int:
    # union-find root, halving the path on the way
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _flip(end, start, via, mate_start_side, mate_end_side) -> None:
    # Augment along the path `via` recorded from `start` to `end`.
    y = end
    while True:
        x = via[y]
        after = mate_start_side[x]
        mate_start_side[x] = y
        mate_end_side[y] = x
        if x == start:
            return
        y = after


def _align_overlap(gold, pred) -> list[tuple[int, int]]:
    # Maximum-cardinality one-to-one matching of intersecting intervals;
    # among maximum matchings, the lexicographically smallest pair list.
    adj = _overlap_adjacency(gold, pred)
    mate_g = [FREE] * len(gold)
    mate_p = [FREE] * len(pred)

    # One maximum matching: greedy in gold order, then augment from each gold
    # left free. Preds seen by failed searches stay dead until one succeeds.
    unmatched = []
    for g, preds in enumerate(adj):
        for p in preds:
            if mate_p[p] == FREE:
                mate_g[g], mate_p[p] = p, g
                break
        else:
            if preds:
                unmatched.append(g)
    dead: set[int] = set()
    via: dict[int, int] = {}
    for g in unmatched:
        end = _alternating_path(g, adj, mate_p, dead, via, FREE)
        if end != FREE:
            _flip(end, g, via, mate_g, mate_p)
            dead = set()
    # Free golds per connected component: an alternating path never leaves
    # its component, so a search for a free gold runs only where one is.
    free = [g for g in unmatched if mate_g[g] == FREE]
    pred_adj: list[list[int]] = [[] for _ in pred]
    component = list(range(len(gold)))
    if free:
        for g, preds in enumerate(adj):
            for p in preds:
                pred_adj[p].append(g)
        for golds in pred_adj:
            for y in golds[1:]:
                component[_root(component, y)] = _root(component, golds[0])
    free_golds = Counter(_root(component, g) for g in free)

    # Decide the golds in order, keeping mate_g/mate_p a maximum matching of
    # the undecided golds and unused preds. Gold g takes the first unused
    # pred p that some maximum matching pairs it with. That holds at once if
    # p is g's mate or either is free. Otherwise, with q = g's mate and
    # h = p's mate, dropping g and p frees q and h, and it holds iff an
    # augmenting path then starts at one of them: from h to a free pred or
    # q, or from q to a free gold. Neither search depends on p beyond its
    # start, so the preds a failed search from h saw stay dead for the next
    # candidate, and the search from q runs at most once per gold.
    pairs: list[tuple[int, int]] = []
    for g, preds in enumerate(adj):
        q = mate_g[g]
        from_h = from_q = None
        for p in preds:
            h = mate_p[p]
            if h == TAKEN:
                continue
            path = None
            if q != FREE and h != FREE and p != q:
                if from_h is None:
                    from_h, dead = {}, set()
                end = _alternating_path(h, adj, mate_p, dead, from_h, g)
                if end != FREE:
                    path = (end, h, from_h, mate_g, mate_p)
                else:
                    # a path from q to h reverses into one from h to q, so any
                    # path found from q avoids h and p
                    if from_q is None:
                        from_q = {}
                        free_gold = FREE
                        if free_golds[_root(component, g)]:
                            free_gold = _alternating_path(q, pred_adj, mate_g, {g}, from_q, FREE)
                    if free_gold == FREE:
                        continue
                    path = (free_gold, q, from_q, mate_p, mate_g)
            if q not in (FREE, p):
                mate_p[q] = FREE
            if h not in (FREE, g):
                mate_g[h] = FREE
            mate_p[p] = TAKEN
            if path is not None:
                _flip(*path)
            pairs.append((g, p))
            break
        else:
            if preds:  # every pred taken: g stays free, now for good
                free_golds[_root(component, g)] -= 1
        mate_g[g] = TAKEN
    return pairs


def align(gold, pred, mode: str = "exact") -> Matching:
    """Align gold and predicted spans one-to-one.

    Exact mode pairs spans with identical (start, end). Overlap mode finds
    a maximum-cardinality matching between intersecting spans, choosing the
    lexicographically smallest pair list for determinism. Both sides must
    be sorted ascending by (start, end).
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown match mode {mode!r}")
    _check_sorted(gold, "gold")
    _check_sorted(pred, "pred")
    if mode == "exact":
        by_span: dict[tuple[int, int], list[int]] = {}
        for j, p in enumerate(pred):
            by_span.setdefault((p.start, p.end), []).append(j)
        pairs = []
        for i, g in enumerate(gold):
            slot = by_span.get((g.start, g.end))
            if slot:
                pairs.append((i, slot.pop(0)))
    else:
        pairs = _align_overlap(gold, pred)
    matched_gold = {i for i, _ in pairs}
    matched_pred = {j for _, j in pairs}
    return Matching(
        pairs=tuple(pairs),
        unmatched_gold=tuple(i for i in range(len(gold)) if i not in matched_gold),
        unmatched_pred=tuple(j for j in range(len(pred)) if j not in matched_pred),
    )


def _ratio(num: int, den: int, warnings: list[str] | None, note: str) -> float:
    if den:
        return num / den
    if warnings is not None:
        warnings.append(note)
    return 0.0


def _f1(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def geodesic_distance(a: GeoPoint, b: GeoPoint, radius_km: float = EARTH_RADIUS_KM) -> float:
    """Haversine great-circle distance in kilometers on a sphere."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * radius_km * math.asin(min(1.0, math.sqrt(h)))


def distance_errors(matching: Matching, gold, pred, radius_km: float = EARTH_RADIUS_KM) -> DistanceErrors:
    """Per-pair great-circle errors over the matched toponyms.

    Pairs whose prediction carries no point count as unresolved; pairs
    whose gold annotation carries no point cannot be scored and are
    skipped and counted (see warn_missing_gold).
    """
    distances: list[float] = []
    unresolved = 0
    missing_gold = 0
    for gi, pi in matching.pairs:
        p_point = pred[pi].point
        if p_point is None:
            unresolved += 1
            continue
        g_point = gold[gi].point
        if g_point is None:
            missing_gold += 1
            continue
        distances.append(geodesic_distance(g_point, p_point, radius_km))
    return DistanceErrors(distances, unresolved, missing_gold)


def warn_missing_gold(count: int, warnings: list[str]) -> None:
    """Note `count` matched pairs whose gold annotation had no point to score against."""
    if count:
        warnings.append(f"distance: {count} matched pairs skipped (gold annotation has no coordinates)")


def mean_median(distances: list[float], warnings: list[str] | None = None) -> tuple[float | None, float | None]:
    """Arithmetic mean and median of the error distances; absent when empty."""
    if not distances:
        if warnings is not None:
            warnings.append("mean/median: no resolved pairs to score")
        return None, None
    return fmean(distances), median(distances)


def accuracy_at_threshold(distances: list[float], threshold_km: float = DEFAULT_THRESHOLD_KM) -> float | None:
    """Fraction of error distances within the threshold (inclusive); absent when empty."""
    if not is_positive_json_number(threshold_km):
        raise ValueError(f"threshold_km must be a finite number above 0, got {threshold_km!r}")
    if not distances:
        return None
    return sum(1 for d in distances if d <= threshold_km) / len(distances)


def auc_distance(
    distances: list[float], d_max_km: float = DEFAULT_D_MAX_KM, warnings: list[str] | None = None
) -> float | None:
    """Normalized area under the log-scaled distance error curve.

    mean of ln(1 + d) / ln(1 + d_max): 0 when every error is zero, 1 when
    every error reaches d_max. Distances above d_max are clamped with a
    warning. Absent when the list is empty.
    """
    if not distances:
        return None
    clamped = 0
    total = 0.0
    for d in distances:
        if d > d_max_km:
            d = d_max_km
            clamped += 1
        total += math.log1p(d)
    if clamped and warnings is not None:
        warnings.append(f"auc: {clamped} distances above d_max clamped")
    return total / (len(distances) * math.log1p(d_max_km))


@dataclass(slots=True)
class EvalReport:
    """The eight metrics plus counts for one (geoparser, corpus) run.

    Recognition ratios are None when suppressed (precision-based metrics on
    a partially annotated corpus); distance metrics are None when no
    matched pair could be scored.
    """

    precision: float | None
    recall: float | None
    f_score: float | None
    accuracy: float | None
    mean_km: float | None
    median_km: float | None
    acc_at_161: float | None
    auc: float | None
    gold: int
    predicted: int
    matched: int
    resolved: int
    unresolved_matched: int
    warnings: list[str]
    geoparser: str = ""
    corpus: str = ""
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            **{key: getattr(self, name) for key, name in REPORT_METRICS.items()},
            "counts": {name: getattr(self, name) for name in REPORT_COUNTS},
            "warnings": list(self.warnings),
            "geoparser": self.geoparser,
            "corpus": self.corpus,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalReport":
        counts = raw.get("counts", {})
        return cls(
            **{name: raw.get(key) for key, name in REPORT_METRICS.items()},
            **{name: counts.get(name, 0) for name in REPORT_COUNTS},
            warnings=list(raw.get("warnings", [])),
            geoparser=raw.get("geoparser", ""),
            corpus=raw.get("corpus", ""),
            config=dict(raw.get("config", {})),
        )


def build_report(
    *,
    gold_count: int,
    pred_count: int,
    matched: int,
    unresolved_matched: int,
    distances: list[float],
    config: MetricsConfig | None = None,
    completeness: str = "complete",
    warnings: list[str] | None = None,
    geoparser: str = "",
    corpus: str = "",
) -> EvalReport:
    """Assemble an EvalReport from pooled (micro-averaged) counts and distances.

    On a partially annotated corpus, precision, recall, and F1 are
    suppressed and only accuracy is reported; on a complete corpus all
    four recognition metrics appear.
    """
    config = config or MetricsConfig()
    notes = list(warnings) if warnings else []
    accuracy = _ratio(matched, gold_count, notes, "accuracy: denominator is zero")
    if completeness == "partial":
        precision = recall = f_score = None
    else:
        precision = _ratio(matched, pred_count, notes, "precision: denominator is zero")
        recall = _ratio(matched, gold_count, notes, "recall: denominator is zero")
        f_score = _f1(precision, recall)

    mean_km, median_km = mean_median(distances, notes)
    acc_at = accuracy_at_threshold(distances, config.threshold_km)
    auc = auc_distance(distances, config.d_max_km, notes)
    # recorded so numbers are only compared within one formula choice
    config_note = {**config.to_dict(), "auc_formula": "mean of ln(1+d)/ln(1+d_max)", "aggregation": "micro"}
    return EvalReport(
        precision=precision,
        recall=recall,
        f_score=f_score,
        accuracy=accuracy,
        mean_km=mean_km,
        median_km=median_km,
        acc_at_161=acc_at,
        auc=auc,
        gold=gold_count,
        predicted=pred_count,
        matched=matched,
        resolved=matched - unresolved_matched,
        unresolved_matched=unresolved_matched,
        warnings=notes,
        geoparser=geoparser,
        corpus=corpus,
        config=config_note,
    )

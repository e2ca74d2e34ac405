"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json
import re
from pathlib import Path

from geobench.corpus import Corpus, Document, GeoPoint, GoldToponym, document_to_json_line
from geobench.gazetteer import Gazetteer, GazetteerEntry, normalize_name
from geobench.geoparser import NoCandidateError, RecognizerConfig, Span


def small_gazetteer() -> Gazetteer:
    """Five entries with one ambiguous name ("Paris") and one nested name pair."""
    entries = [
        GazetteerEntry(1, "Paris", ("Paname",), GeoPoint(48.8566, 2.3522), "P", "PPLC", 2140000, "FR"),
        GazetteerEntry(2, "Paris", (), GeoPoint(33.6609, -95.5555), "P", "PPL", 25000, "US"),
        GazetteerEntry(3, "Berlin", (), GeoPoint(52.52, 13.405), "P", "PPLC", 3645000, "DE"),
        GazetteerEntry(4, "New York City", ("New York",), GeoPoint(40.7128, -74.006), "P", "PPL", 8400000, "US"),
        GazetteerEntry(5, "York", (), GeoPoint(53.96, -1.08), "P", "PPL", 153717, "GB"),
    ]
    return Gazetteer.from_entries(entries)


def planted_names(n: int) -> list[str]:
    """Invented, unambiguous, capitalized single-token place names."""
    return [f"Zq{chr(ord('a') + i % 26)}{chr(ord('a') + i // 26)}ton".capitalize() for i in range(n)]


def smoke_corpus_and_gazetteer(n: int = 20, name: str = "smoke"):
    """A corpus of n documents, each containing exactly one planted toponym.

    The gazetteer holds exactly the planted names, so the dictionary
    recognizer finds each gold span and nothing else, and the gold points
    equal the gazetteer points.
    """
    names = planted_names(n)
    entries = []
    documents = []
    for i, place in enumerate(names):
        point = GeoPoint(-60.0 + i * 5.7 % 120, -170.0 + i * 16.3 % 340)
        entries.append(GazetteerEntry(100 + i, place, (), point, "P", "PPL", 1000 + i, "XX"))
        text = f"Flood warnings were issued near {place} on Tuesday."
        start = text.index(place)
        gold = (GoldToponym(start, start + len(place), place, point=point),)
        documents.append(Document(f"doc-{i:03d}", text, gold, source=name))
    corpus = Corpus(name=name, documents=tuple(documents), completeness="complete")
    return corpus, Gazetteer.from_entries(entries)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus in the JSON-lines interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            fh.write(document_to_json_line(doc))
            fh.write("\n")


def write_corpus_files(corpus: Corpus, directory: Path) -> tuple[Path, Path]:
    """Write corpus + manifest under directory; returns (corpus_path, manifest_path)."""
    corpus_path = directory / f"{corpus.name}.jsonl"
    manifest_path = directory / f"{corpus.name}.manifest.json"
    save_corpus(corpus, corpus_path)
    manifest_path.write_text(
        json.dumps({"name": corpus.name, "completeness": corpus.completeness}), encoding="utf-8"
    )
    return corpus_path, manifest_path


def gold_replay_fixture(corpus: Corpus) -> dict:
    """Wire-format predictions replaying the gold annotations exactly."""
    fixture = {}
    for doc in corpus.documents:
        items = []
        for top in doc.gold:
            item = {"start": top.start, "end": top.end, "name": top.name}
            if top.point is not None:
                item["lat"] = top.point.lat
                item["lon"] = top.point.lon
            items.append(item)
        fixture[doc.id] = items
    return fixture


REPLAY_CHILD = """\
import json, sys

fixture = json.load(open(sys.argv[1], encoding="utf-8"))
for line in sys.stdin:
    request = json.loads(line)
    print(json.dumps({"id": request["id"], "toponyms": fixture.get(request["id"], [])}), flush=True)
"""


def write_replay_child(directory: Path, fixture: dict) -> list[str]:
    """Materialize a child process speaking the line protocol from a fixture map."""
    script = directory / "replay_child.py"
    data = directory / "replay_fixture.json"
    script.write_text(REPLAY_CHILD, encoding="utf-8")
    data.write_text(json.dumps(fixture), encoding="utf-8")
    import sys

    return [sys.executable, str(script), str(data)]


def geonames_row(
    entry_id: int,
    name: str,
    lat: float,
    lon: float,
    population: int = 0,
    alternates: str = "",
    feature_class: str = "P",
    feature_code: str = "PPL",
    country: str = "XX",
) -> str:
    """One 19-column GeoNames-layout TSV line."""
    cols = [""] * 19
    cols[0] = str(entry_id)
    cols[1] = name
    cols[2] = name  # asciiname, unused
    cols[3] = alternates
    cols[4] = str(lat)
    cols[5] = str(lon)
    cols[6] = feature_class
    cols[7] = feature_code
    cols[8] = country
    cols[14] = str(population)
    return "\t".join(cols)


# The recognizer and resolver as they were before the lexicon: every n-gram
# from longest to shortest, each probed through Gazetteer.lookup, and
# candidates re-ranked per mention. Tests compare the builtin against them.

_REFERENCE_WORD = re.compile(r"\w+")


def _reference_candidates(gazetteer: Gazetteer, name: str, primary_only: bool) -> list[GazetteerEntry]:
    found = gazetteer.lookup(name)
    if primary_only and found:
        key = normalize_name(name, gazetteer.fold_diacritics)
        found = [e for e in found if normalize_name(e.primary_name, gazetteer.fold_diacritics) == key]
    return found


def reference_recognize_lexicon(document: Document, gazetteer: Gazetteer, config: RecognizerConfig) -> list[Span]:
    text = document.text
    tokens = [(m.start(), m.end()) for m in _REFERENCE_WORD.finditer(text)]
    spans: list[Span] = []
    i = 0
    n = len(tokens)
    while i < n:
        start = tokens[i][0]
        if config.require_capitalized and not text[start].isupper():
            i += 1
            continue
        matched = None
        for k in range(min(config.max_ngram, n - i), 0, -1):
            end = tokens[i + k - 1][1]
            candidate = text[start:end]
            normalized = normalize_name(candidate, gazetteer.fold_diacritics)
            if normalized in config.stoplist:
                continue
            if _reference_candidates(gazetteer, normalized, config.primary_names_only):
                matched = (k, Span(start, end, candidate))
                break
        if matched:
            spans.append(matched[1])
            i += matched[0]
        else:
            i += 1
    return spans


def reference_resolve_population(name: str, gazetteer: Gazetteer, primary_only: bool = False) -> GazetteerEntry:
    found = _reference_candidates(gazetteer, name, primary_only)
    if not found:
        raise NoCandidateError(name)
    return max(found, key=lambda e: e.population)


# Overlap alignment as it was before the single-matching rewrite: a fresh
# Kuhn matching for every (gold, pred) decision. Slow but plainly correct;
# tests compare align(..., "overlap") against it on small layouts.


def _reference_matching_size(adj, n_gold, banned_gold, banned_pred) -> int:
    match_of_pred: dict[int, int] = {}

    def try_assign(g, visited):
        for p in adj[g]:
            if p in banned_pred or p in visited:
                continue
            visited.add(p)
            if p not in match_of_pred or try_assign(match_of_pred[p], visited):
                match_of_pred[p] = g
                return True
        return False

    size = 0
    for g in range(n_gold):
        if g in banned_gold:
            continue
        if try_assign(g, set()):
            size += 1
    return size


def reference_align_overlap(gold, pred) -> list[tuple[int, int]]:
    adj = [[j for j, p in enumerate(pred) if g.start < p.end and p.start < g.end] for g in gold]
    total = _reference_matching_size(adj, len(gold), banned_gold=set(), banned_pred=set())
    pairs: list[tuple[int, int]] = []
    used_pred: set[int] = set()
    decided_gold: set[int] = set()
    for g in range(len(gold)):
        chosen = None
        for p in adj[g]:
            if p in used_pred:
                continue
            rest = _reference_matching_size(adj, len(gold), decided_gold | {g}, used_pred | {p})
            if len(pairs) + 1 + rest == total:
                chosen = p
                break
        decided_gold.add(g)
        if chosen is not None:
            pairs.append((g, chosen))
            used_pred.add(chosen)
    return pairs

"""Geoparser interface, plus the built-in lexicon + population baseline.

A geoparser turns a document into a list of PredictedToponym: recognized
spans with, when resolvable, coordinates. The bundled baseline recognizes
place names by longest-match dictionary lookup against the gazetteer and
resolves each recognized name to the candidate with the largest
population. External systems plug in through the adapters module; this
module provides the shared output type, span validation, and the factory
that turns a GeoparserSpec into a runnable parser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from .corpus import Document, GeoPoint, is_json_int, is_json_number
from .gazetteer import WORD, Gazetteer, GazetteerEntry, normalize_name

GEOPARSER_KINDS = ("builtin-baseline", "external-process", "external-http")


class NoCandidateError(LookupError):
    """The gazetteer holds no candidate for a name; the toponym stays unresolved."""


@dataclass(frozen=True, slots=True)
class PredictedToponym:
    """A geoparser's output span with its resolved location, if any."""

    start: int
    end: int
    name: str
    point: GeoPoint | None = None
    entry_id: int | None = None


class Span(NamedTuple):
    start: int
    end: int
    name: str


@lru_cache(maxsize=None)
def default_stoplist() -> frozenset[str]:
    """Normalized forms of the shipped stoplist (data/stoplist.txt)."""
    text = resources.files("geobench").joinpath("data/stoplist.txt").read_text("utf-8")
    words = (line.strip() for line in text.splitlines())
    return frozenset(normalize_name(w) for w in words if w and not w.startswith("#"))


@dataclass(frozen=True)
class RecognizerConfig:
    """Settings for the dictionary recognizer.

    The capitalization gate is on by default; turn it off to score
    caseless corpora. The stoplist holds normalized names whose
    whole-n-gram match is rejected.
    """

    max_ngram: int = 5
    require_capitalized: bool = True
    stoplist: frozenset[str] = field(default_factory=default_stoplist)
    primary_names_only: bool = False

    def __post_init__(self):
        if self.max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")


@dataclass(frozen=True)
class GeoparserSpec:
    """Names a geoparser and how to run it; identifier is unique per run."""

    kind: str
    identifier: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GEOPARSER_KINDS:
            raise ValueError(f"geoparser kind must be one of {GEOPARSER_KINDS}, got {self.kind!r}")
        if not self.identifier:
            raise ValueError("geoparser identifier must be non-empty")


def _leads_every_ngram(text: str, tokens: list, i: int, first: str, longest: int, fold: bool) -> bool:
    """Whether `first`, the normalized token i, is the leading word of every normalized n-gram from i.

    Case-folding and stripping combining marks act one character at a
    time, and collapsing whitespace one run at a time, so each normalized
    n-gram from token i starts with `first`, and all those of two or more
    tokens share the character after it. If `first` is a whole word and
    that character is no word character, `first` is their leading word.
    The character must be taken from a normalized n-gram: a separator of
    combining marks alone vanishes when diacritics are folded.
    """
    if not WORD.fullmatch(first):
        return False
    if longest == 1:
        return True
    if text[tokens[i][1]].isascii():
        # not a word character, as tokens are whole words; it normalizes to itself or to a space
        return True
    two = normalize_name(text[tokens[i][0] : tokens[i + 1][1]], fold)
    return WORD.match(two, len(first)) is None


def recognize_lexicon(document: Document, gazetteer: Gazetteer, config: RecognizerConfig | None = None) -> list[Span]:
    """Recognize toponym spans by longest-match gazetteer lookup.

    Scans word tokens left to right; at each position the longest n-gram
    (up to max_ngram tokens, taken as the raw text slice between token
    boundaries) whose normalized form is in the gazetteer and not in the
    stoplist becomes a match, and scanning resumes after it. Matches are
    therefore non-overlapping and sorted.
    """
    config = config or RecognizerConfig()
    fold = gazetteer.fold_diacritics
    lexicon = gazetteer.lexicon(config.primary_names_only)
    heads = gazetteer.head_limits()
    text = document.text
    tokens = [(m.start(), m.end()) for m in WORD.finditer(text)]
    spans: list[Span] = []
    i = 0
    n = len(tokens)
    while i < n:
        start, first_end = tokens[i]
        if config.require_capitalized and not text[start].isupper():
            i += 1
            continue
        longest = min(config.max_ngram, n - i)
        first = normalize_name(text[start:first_end], fold)
        # only names with head `first`, and no longer than its limit, can match
        limit = heads.get(first, 0) if _leads_every_ngram(text, tokens, i, first, longest, fold) else math.inf
        ngrams = []
        for k in range(1, longest + 1):
            normalized = normalize_name(text[start : tokens[i + k - 1][1]], fold) if k > 1 else first
            if len(normalized) > limit:  # n-grams only grow with k
                break
            ngrams.append((k, normalized))
        for k, normalized in reversed(ngrams):
            if normalized not in config.stoplist and normalized in lexicon:
                end = tokens[i + k - 1][1]
                spans.append(Span(start, end, text[start:end]))
                i += k
                break
        else:
            i += 1
    return spans


def resolve_population(name: str, gazetteer: Gazetteer, primary_only: bool = False) -> GazetteerEntry:
    """Resolve a name to its most populous candidate (ties: smallest id).

    Raises NoCandidateError when the gazetteer has no entry for the name;
    the pipeline then keeps the span with no point.
    """
    entry = gazetteer.lexicon(primary_only).get(normalize_name(name, gazetteer.fold_diacritics))
    if entry is None:
        raise NoCandidateError(name)
    return entry


class BuiltinGeoparser:
    """Dictionary recognizer chained with the population resolver.

    Pure and deterministic: identical (document, gazetteer, config) always
    produce identical output, and instances may be shared across threads.
    """

    def __init__(self, gazetteer: Gazetteer, config: RecognizerConfig | None = None):
        self.gazetteer = gazetteer
        self.config = config or RecognizerConfig()

    def parse_document(self, document: Document) -> tuple[list[PredictedToponym], int]:
        predictions = []
        for span in recognize_lexicon(document, self.gazetteer, self.config):
            try:
                entry = resolve_population(span.name, self.gazetteer, self.config.primary_names_only)
                predictions.append(
                    PredictedToponym(span.start, span.end, span.name, point=entry.point, entry_id=entry.id)
                )
            except NoCandidateError:
                predictions.append(PredictedToponym(span.start, span.end, span.name))
        return predictions, 0

    def close(self) -> None:
        pass


def coerce_predictions(text: str, raw_toponyms: list) -> tuple[list[PredictedToponym], int]:
    """Validate raw wire-format toponyms against the document text.

    Items with out-of-bounds spans, a name differing from the text slice,
    or unusable coordinates are dropped individually and counted, so one
    bad prediction never discards a whole response. Output is sorted by
    (start, end).
    """
    predictions = []
    dropped = 0
    for item in raw_toponyms:
        if not isinstance(item, dict):
            dropped += 1
            continue
        start, end = item.get("start"), item.get("end")
        if not is_json_int(start) or not is_json_int(end) or not (0 <= start < end <= len(text)):
            dropped += 1
            continue
        slice_ = text[start:end]
        name = item.get("name", slice_)
        if name != slice_:
            dropped += 1
            continue
        lat, lon = item.get("lat"), item.get("lon")
        if (lat is None) != (lon is None):
            dropped += 1
            continue
        point = None
        if lat is not None:
            if not is_json_number(lat) or not is_json_number(lon):
                dropped += 1
                continue
            point = GeoPoint(float(lat), float(lon))
            if not point.is_valid():
                dropped += 1
                continue
        entry_id = item.get("entry_id")
        if entry_id is not None and not is_json_int(entry_id):
            entry_id = None
        predictions.append(PredictedToponym(start, end, name, point=point, entry_id=entry_id))
    predictions.sort(key=lambda p: (p.start, p.end))
    return predictions, dropped


def create_geoparser(spec: GeoparserSpec, gazetteer: Gazetteer | None = None):
    """Instantiate a runnable geoparser from its spec.

    The returned object offers parse_document(document) -> (predictions,
    dropped_count) and close(). External-process instances own one child
    process each; create one per worker for concurrent runs.
    """
    from . import adapters

    params = spec.parameters or {}
    if spec.kind == "builtin-baseline":
        if gazetteer is None:
            raise ValueError("builtin-baseline geoparser needs a gazetteer")
        stoplist = set() if params.get("no_default_stoplist") else set(default_stoplist())
        stoplist.update(normalize_name(w) for w in params.get("extra_stopwords", ()))
        config = RecognizerConfig(
            max_ngram=params.get("max_ngram", 5),
            require_capitalized=params.get("require_capitalized", True),
            stoplist=frozenset(stoplist),
            primary_names_only=params.get("primary_names_only", False),
        )
        return BuiltinGeoparser(gazetteer, config)
    if spec.kind == "external-process":
        command = params.get("command")
        if not command or not isinstance(command, (list, tuple)):
            raise ValueError("external-process geoparser needs parameters.command as an argv list")
        return adapters.ProcessGeoparser(list(command), timeout=params.get("timeout", adapters.DEFAULT_TIMEOUT))
    if spec.kind == "external-http":
        endpoint = params.get("endpoint")
        if not endpoint:
            raise ValueError("external-http geoparser needs parameters.endpoint")
        return adapters.HttpGeoparser(endpoint, timeout=params.get("timeout", adapters.DEFAULT_TIMEOUT))
    raise ValueError(f"unknown geoparser kind {spec.kind!r}")


def parse(spec: GeoparserSpec, document: Document, gazetteer: Gazetteer | None = None) -> list[PredictedToponym]:
    """One-shot parse of a single document per the given spec."""
    parser = create_geoparser(spec, gazetteer)
    try:
        predictions, _ = parser.parse_document(document)
        return predictions
    finally:
        parser.close()

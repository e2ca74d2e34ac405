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
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import accumulate
from typing import NamedTuple

from .corpus import Document, GeoPoint, is_json_int
from .gazetteer import WORD, Gazetteer, GazetteerEntry, normalize_name

GEOPARSER_KINDS = ("builtin-baseline", "external-process", "external-http")

# splits a text into the parts between word tokens (even indexes) and the tokens (odd indexes)
_TOKENS = re.compile(r"(\w+)")


class NoCandidateError(LookupError):
    """The gazetteer holds no candidate for a name."""


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
def default_stoplist(fold_diacritics: bool = False) -> frozenset[str]:
    """Normalized forms of the shipped stoplist (data/stoplist.txt), with diacritics folded or not."""
    text = resources.files("geobench").joinpath("data/stoplist.txt").read_text("utf-8")
    words = (line.strip() for line in text.splitlines())
    return frozenset(normalize_name(w, fold_diacritics) for w in words if w and not w.startswith("#"))


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
        if not is_json_int(self.max_ngram) or self.max_ngram < 1:
            raise ValueError(f"max_ngram must be an integer >= 1, got {self.max_ngram!r}")

    @classmethod
    def from_parameters(cls, params: dict, fold_diacritics: bool = False) -> RecognizerConfig:
        """The config of a builtin-baseline spec's `parameters`, for a gazetteer with this fold flag.

        An absent key takes its default; another key, or a value of the wrong type, is a ValueError. Stopwords
        are normalized as the gazetteer normalizes names.
        """
        flags = ("require_capitalized", "no_default_stoplist", "primary_names_only")
        unknown = sorted(set(params) - {"max_ngram", "extra_stopwords", *flags})
        if unknown:
            raise ValueError(f"unknown builtin-baseline parameter {unknown[0]!r}")
        for flag in flags:
            if not isinstance(params.get(flag, False), bool):
                raise ValueError(f"{flag} must be true or false, got {params[flag]!r}")
        words = params.get("extra_stopwords", [])
        if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
            raise ValueError(f"extra_stopwords must be a list of strings, got {words!r}")
        stoplist = frozenset() if params.get("no_default_stoplist") else default_stoplist(fold_diacritics)
        stoplist |= {normalize_name(w, fold_diacritics) for w in words}
        fields = {key: value for key, value in params.items() if key not in ("no_default_stoplist", "extra_stopwords")}
        return cls(stoplist=stoplist, **fields)


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
        _check_parameters(self.kind, self.parameters or {})


def _check_parameters(kind: str, params: dict) -> None:
    """Raise ValueError for a parameter a geoparser of `kind` cannot run on, before any gazetteer or child."""
    from .adapters import _checked_endpoint, _checked_timeout

    if kind == "builtin-baseline":
        RecognizerConfig.from_parameters(params)  # which refuses a timeout
    elif kind == "external-process":
        command = params.get("command")
        if not command or not isinstance(command, (list, tuple)) or not all(isinstance(a, str) for a in command):
            raise ValueError(f"external-process geoparser needs parameters.command as an argv list, got {command!r}")
    else:
        _checked_endpoint(params.get("endpoint"))
    if "timeout" in params:
        _checked_timeout(params["timeout"])


def _matches(text: str, gazetteer: Gazetteer, config: RecognizerConfig) -> Iterator[tuple[int, int, str]]:
    """(start, end, normalized name) of each match of recognize_lexicon, left to right."""
    fold = gazetteer.fold_diacritics
    lexicon = gazetteer.lexicon(config.primary_names_only)
    heads = gazetteer.head_limits()
    stoplist = config.stoplist
    parts = _TOKENS.split(text)
    words = parts[1::2]
    after = parts[2::2]  # the text after each token; empty only after the text's last character
    # token k is text[bounds[2k + 1] : bounds[2k + 2]]
    bounds = list(accumulate(map(len, parts), initial=0))
    gate = config.require_capitalized
    # The head test below prunes every token whose case-fold is ASCII and is followed by an ASCII character or
    # nothing: that case-fold is then the token's normalized form and a whole word. So only the other tokens,
    # and heads, can start a match.
    candidates = [
        k
        for k, (word, rest) in enumerate(zip(words, after))
        if (not gate or word[0].isupper())
        and ((folded := word.casefold()) in heads or not folded.isascii() or not rest[:1].isascii())
    ]
    n = len(words)
    resume = 0
    for i in candidates:
        if i < resume:  # inside the last match
            continue
        start = bounds[2 * i + 1]
        longest = min(config.max_ngram, n - i)
        # no word character is whitespace, so an unfolded token normalizes to its case-fold
        first = normalize_name(words[i], True) if fold else words[i].casefold()
        # Case-folding and stripping combining marks act one character at a time, and collapsing whitespace
        # one run at a time, so each normalized n-gram from token i starts with `first`, and all those of two
        # or more tokens share the character after it. If `first` is a whole word and that character is no
        # word character, `first` is their leading word, and only names with head `first`, no longer than its
        # limit, can match. The character must be taken from a normalized n-gram: a separator of combining
        # marks alone vanishes when diacritics are folded. An ASCII one is no word character, as tokens are
        # whole words, and normalizes to itself or to a space.
        limit = math.inf
        if WORD.fullmatch(first) and (
            longest == 1
            or after[i][:1].isascii()
            or WORD.match(normalize_name(text[start : bounds[2 * i + 4]], fold), len(first)) is None
        ):
            limit = heads.get(first, 0)
        ngrams = []
        for k in range(1, longest + 1):
            normalized = normalize_name(text[start : bounds[2 * (i + k)]], fold) if k > 1 else first
            if len(normalized) > limit:  # n-grams only grow with k
                break
            ngrams.append((k, normalized))
        for k, normalized in reversed(ngrams):
            if normalized not in stoplist and normalized in lexicon:
                yield start, bounds[2 * (i + k)], normalized
                resume = i + k
                break


def recognize_lexicon(document: Document, gazetteer: Gazetteer, config: RecognizerConfig | None = None) -> list[Span]:
    """Recognize toponym spans by longest-match gazetteer lookup.

    Scans word tokens left to right; at each position the longest n-gram
    (up to max_ngram tokens, taken as the raw text slice between token
    boundaries) whose normalized form is in the gazetteer and not in the
    stoplist becomes a match, and scanning resumes after it. Matches are
    therefore non-overlapping and sorted.
    """
    text = document.text
    matches = _matches(text, gazetteer, config or RecognizerConfig())
    return [Span(start, end, text[start:end]) for start, end, _ in matches]


def resolve_population(name: str, gazetteer: Gazetteer, primary_only: bool = False) -> GazetteerEntry:
    """Resolve a name to its most populous candidate (ties: smallest id).

    Raises NoCandidateError when the gazetteer has no entry for the name.
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
        text = document.text
        lexicon = self.gazetteer.lexicon(self.config.primary_names_only)
        predictions = []
        for start, end, key in _matches(text, self.gazetteer, self.config):
            entry = lexicon[key]
            predictions.append(PredictedToponym(start, end, text[start:end], point=entry.point, entry_id=entry.id))
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
    # runs once per prediction of every document, fresh or cached, so the
    # is_json_int and is_json_number tests are written out in place
    predictions = []
    dropped = 0
    for item in raw_toponyms:
        if not isinstance(item, dict):
            dropped += 1
            continue
        start, end = item.get("start"), item.get("end")
        if type(start) is not int or type(end) is not int or not (0 <= start < end <= len(text)):
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
            # false for NaN, an infinity, or an integer beyond any float, so float() below never overflows
            if (
                type(lat) not in (int, float)
                or type(lon) not in (int, float)
                or not (-90 <= lat <= 90 and -180 <= lon <= 180)
            ):
                dropped += 1
                continue
            point = GeoPoint(float(lat), float(lon))
        entry_id = item.get("entry_id")
        if type(entry_id) is not int:
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

    params = spec.parameters or {}  # checked when the spec was made
    if spec.kind == "builtin-baseline":
        if gazetteer is None:
            raise ValueError("builtin-baseline geoparser needs a gazetteer")
        return BuiltinGeoparser(gazetteer, RecognizerConfig.from_parameters(params, gazetteer.fold_diacritics))
    timeout = params.get("timeout", adapters.DEFAULT_TIMEOUT)
    if spec.kind == "external-process":
        return adapters.ProcessGeoparser(list(params["command"]), timeout=timeout)
    return adapters.HttpGeoparser(params["endpoint"], timeout=timeout)

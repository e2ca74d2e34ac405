"""Annotated corpus loading, checking, and transforms.

A corpus is stored as UTF-8 JSON lines, one document per line:

    {"id": str, "text": str, "toponyms": [{"start": int, "end": int,
     "name": str, "lat": num?, "lon": num?, "gazetteer_id": str?, "kind": str?}]}

plus a small manifest: {"name": str, "completeness": "complete"|"partial"}.

Character offsets count Unicode scalar values, i.e. plain Python string
indices. Loaded corpora are immutable and safe to share between threads.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

TOPONYM_KINDS = ("admin-unit", "demonym", "natural-feature", "facility", "other")
COMPLETENESS_VALUES = ("complete", "partial")

# UTF-8 decoding refuses a literal surrogate, so only a JSON escape of one (\uD800-\uDFFF) brings one into a string
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")


class CorpusFormatError(Exception):
    """A corpus file or manifest could not be loaded."""


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def is_valid(self) -> bool:
        return (
            math.isfinite(self.lat)
            and math.isfinite(self.lon)
            and -90.0 <= self.lat <= 90.0
            and -180.0 <= self.lon <= 180.0
        )


@dataclass(frozen=True, slots=True)
class GoldToponym:
    """An annotated place mention: [start, end) span plus ground truth.

    `start` is inclusive, `end` exclusive; `name` must equal the text slice.
    `point` and `gazetteer_id` are absent when the annotation carries no
    resolved location. `kind` records the annotation scheme's tag for the
    mention (see TOPONYM_KINDS).
    """

    start: int
    end: int
    name: str
    point: GeoPoint | None = None
    gazetteer_id: str | None = None
    kind: str | None = None


@dataclass(frozen=True, slots=True)
class Document:
    """One annotated text with its gold toponyms sorted by (start, end).

    `source` is a provenance label (normally the corpus name), not a path;
    it is not part of the interchange format.
    """

    id: str
    text: str
    gold: tuple[GoldToponym, ...]
    source: str = ""


@dataclass(frozen=True, slots=True)
class Corpus:
    name: str
    documents: tuple[Document, ...]
    completeness: str = "complete"


@dataclass(frozen=True, slots=True)
class CorpusStats:
    document_count: int
    toponym_count: int
    mean_tokens_per_document: float
    toponyms_with_coordinates: int


def _document_error(doc: Document, seen_ids: set[str]) -> str | None:
    """The first rule one document breaks, or None; its id is then added to the ids of the documents before it.

    The gold must be sorted by (start, end), as load_corpus sorts it, so that a duplicate span follows its twin.
    """
    if not doc.id:
        return "empty document id"
    if doc.id in seen_ids:
        return "duplicate document id"
    seen_ids.add(doc.id)
    prev_key = None
    for top in doc.gold:
        key = (top.start, top.end)
        if not (0 <= top.start < top.end <= len(doc.text)):
            return f"span {key} out of bounds for text of length {len(doc.text)}"
        if doc.text[top.start : top.end] != top.name:
            return f"span {key} surface form mismatch: annotated {top.name!r}, text has {doc.text[top.start:top.end]!r}"
        if key == prev_key:
            return f"duplicate span {key}"
        prev_key = key
        if top.point is not None and not top.point.is_valid():
            return f"coordinate out of range at span {key}: {top.point}"
        if top.kind is not None and top.kind not in TOPONYM_KINDS:
            return f"unknown toponym kind {top.kind!r} at span {key}"
    return None


def check_completeness(value, where: str = "") -> None:
    """Refuse, with a CorpusFormatError prefixed by `where`, a completeness that is not "complete" or "partial"."""
    if value not in COMPLETENESS_VALUES:
        raise CorpusFormatError(f"{where}completeness must be one of {COMPLETENESS_VALUES}, got {value!r}")


def is_json_int(value) -> bool:
    """Whether a decoded JSON value is an integer; JSON true and false decode to bool, a subclass of int."""
    return type(value) is int


def is_json_number(value) -> bool:
    """Whether a decoded JSON value is a number (integer or float), not a bool."""
    return type(value) in (int, float)


def is_positive_json_number(value) -> bool:
    """Whether a decoded JSON value is a number above 0 that a float holds: false for NaN, infinities and bools."""
    return is_json_number(value) and 0 < value <= sys.float_info.max


def hash_file(path: str | Path, hasher, offset: int = 0) -> str:
    """Feed the bytes of a file from `offset` to its end to `hasher`; returns its hex digest.

    The file is read in fixed-size chunks, so a file of any size costs one
    chunk of memory. Raises OSError if the file cannot be read.
    """
    with open(path, "rb") as fh:
        fh.seek(offset)
        return hashlib.file_digest(fh, lambda: hasher).hexdigest()


def _parse_toponym(raw: dict, doc_id: str) -> GoldToponym:
    try:
        start = raw["start"]
        end = raw["end"]
        name = raw["name"]
    except (KeyError, TypeError) as exc:
        raise CorpusFormatError(f"document {doc_id!r}: toponym record missing {exc}") from None
    if not is_json_int(start) or not is_json_int(end) or not isinstance(name, str):
        raise CorpusFormatError(f"document {doc_id!r}: toponym fields have wrong types")
    lat, lon = raw.get("lat"), raw.get("lon")
    if (lat is None) != (lon is None):
        raise CorpusFormatError(f"document {doc_id!r}: toponym {name!r} has only one of lat/lon")
    point = None
    if lat is not None:
        if not is_json_number(lat) or not is_json_number(lon):
            raise CorpusFormatError(f"document {doc_id!r}: non-numeric coordinates for {name!r}")
        try:
            point = GeoPoint(float(lat), float(lon))
        except OverflowError:  # an integer beyond any float, so beyond any valid coordinate
            raise CorpusFormatError(f"document {doc_id!r}: coordinate out of range for {name!r}") from None
    gaz_id = raw.get("gazetteer_id")
    if gaz_id is not None and not isinstance(gaz_id, str):
        raise CorpusFormatError(f"document {doc_id!r}: gazetteer_id of {name!r} must be a string, got {gaz_id!r}")
    kind = raw.get("kind")
    return GoldToponym(start, end, name, point=point, gazetteer_id=gaz_id, kind=kind)


def load_corpus(
    path: str | Path, completeness: str = "complete", name: str | None = None, *, data: bytes | None = None
) -> Corpus:
    """Load a JSON-lines corpus file.

    `completeness` and `name` come from the corpus manifest (see
    load_manifest); they are never inferred from the data. Any malformed
    record or invariant violation aborts the load with a diagnostic citing
    the line number and document id. `data`, if given, is the file's bytes,
    already read: they are parsed in place of the file, so that a caller
    that hashed them knows the corpus came from exactly those bytes.
    """
    path = Path(path)
    check_completeness(completeness)
    corpus_name = name if name is not None else path.stem
    documents = []
    seen_ids = set()
    try:
        # the same decoding and line splitting either way
        fh = open(path, encoding="utf-8") if data is None else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus file {path}: {exc}") from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"{path}:{lineno}: malformed JSON: {exc}") from None
                if not isinstance(raw, dict) or "id" not in raw or "text" not in raw:
                    raise CorpusFormatError(f"{path}:{lineno}: record must be an object with 'id' and 'text'")
                doc_id, text = raw["id"], raw["text"]
                if not isinstance(doc_id, str) or not isinstance(text, str):
                    raise CorpusFormatError(f"{path}:{lineno}: 'id' and 'text' must be strings")
                tops = raw.get("toponyms", [])
                if not isinstance(tops, list):
                    raise CorpusFormatError(f"{path}:{lineno}: 'toponyms' must be a list")
                try:
                    gold = sorted((_parse_toponym(t, doc_id) for t in tops), key=lambda t: (t.start, t.end))
                except CorpusFormatError as exc:
                    raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
                doc = Document(id=doc_id, text=text, gold=tuple(gold), source=corpus_name)
                error = _document_error(doc, seen_ids)
                # a lone surrogate loads, but no UTF-8 file, cache key or output can hold it
                if not error and _SURROGATE_ESCAPE.search(line) and _SURROGATE.search(document_to_json_line(doc)):
                    error = "a string holds a lone surrogate (\\uD800-\\uDFFF), which UTF-8 cannot encode"
                if error:
                    raise CorpusFormatError(f"{path}:{lineno}: {error} (document {doc_id!r})")
                documents.append(doc)
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{path}: not UTF-8: {exc}") from None
    return Corpus(name=corpus_name, documents=tuple(documents), completeness=completeness)


def _toponym_to_json(top: GoldToponym) -> dict:
    out: dict = {"start": top.start, "end": top.end, "name": top.name}
    if top.point is not None:
        out["lat"] = top.point.lat
        out["lon"] = top.point.lon
    if top.gazetteer_id is not None:
        out["gazetteer_id"] = top.gazetteer_id
    if top.kind is not None:
        out["kind"] = top.kind
    return out


def document_to_json_line(doc: Document) -> str:
    """Serialize one document to its canonical interchange line."""
    record = {
        "id": doc.id,
        "text": doc.text,
        "toponyms": [_toponym_to_json(t) for t in doc.gold],
    }
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def load_manifest(path: str | Path) -> dict:
    """Load a corpus manifest: {"name": str, "completeness": "complete"|"partial"}."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CorpusFormatError(f"cannot read manifest {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorpusFormatError(f"malformed manifest {path}: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
        raise CorpusFormatError(f"manifest {path} must be an object with a string 'name'")
    check_completeness(raw.get("completeness"), f"manifest {path}: ")
    return {"name": raw["name"], "completeness": raw["completeness"]}


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Count documents, toponyms, and whitespace-delimited tokens."""
    doc_count = len(corpus.documents)
    top_count = sum(len(d.gold) for d in corpus.documents)
    with_coords = sum(1 for d in corpus.documents for t in d.gold if t.point is not None)
    tokens = sum(len(d.text.split()) for d in corpus.documents)
    mean_tokens = tokens / doc_count if doc_count else 0.0
    return CorpusStats(doc_count, top_count, mean_tokens, with_coords)


def _lower_preserving_length(text: str) -> str:
    # A scalar whose lowercase mapping is not exactly one scalar (e.g.
    # U+0130) is left unchanged so that all character offsets stay valid.
    out = []
    for ch in text:
        low = ch.lower()
        out.append(low if len(low) == 1 else ch)
    return "".join(out)


def degrade_case(corpus: Corpus) -> Corpus:
    """Lowercase all text and gold names, keeping every offset valid.

    Builds a caseless stress variant of a corpus: per-scalar lowercasing,
    skipping the rare scalars whose lowercase form would change the string
    length. Idempotent; spans, counts, and coordinates are untouched.
    """
    documents = []
    for doc in corpus.documents:
        new_text = _lower_preserving_length(doc.text)
        new_gold = tuple(replace(t, name=new_text[t.start : t.end]) for t in doc.gold)
        documents.append(replace(doc, text=new_text, gold=new_gold))
    return replace(corpus, documents=tuple(documents))

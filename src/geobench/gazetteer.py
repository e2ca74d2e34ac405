"""Gazetteer ingestion and candidate lookup by normalized name.

Reads tab-separated place tables, either in the standard 19-column GeoNames
layout or with a user-supplied column map, and builds an in-memory index
from normalized names (primary and alternate) to entries. The built
gazetteer is immutable and safe for unlimited concurrent readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import threading
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import GeoPoint, gc_paused, is_json_int

# Zero-based column indices of the GeoNames allCountries.txt layout.
GEONAMES_COLUMNS = {
    "id": 0,
    "name": 1,
    "alternates": 3,
    "lat": 4,
    "lon": 5,
    "feature_class": 6,
    "feature_code": 7,
    "country": 8,
    "population": 14,
}
_REQUIRED_COLUMNS = ("id", "name", "lat", "lon")

# A word: the recognizer's token, and the head of a name in the head table.
WORD = re.compile(r"\w+")


class GazetteerError(Exception):
    """A gazetteer could not be built or loaded."""


@dataclass(frozen=True, slots=True)
class GazetteerEntry:
    id: int
    primary_name: str
    alternate_names: tuple[str, ...]
    point: GeoPoint
    feature_class: str = ""
    feature_code: str = ""
    population: int = 0
    country: str = ""

    def names(self):
        yield self.primary_name
        yield from self.alternate_names


@dataclass(slots=True)
class IngestStats:
    """Tally of rows seen and skipped while ingesting a place table."""

    rows_read: int = 0
    rows_ingested: int = 0
    rows_skipped: int = 0
    skip_reasons: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str) -> None:
        self.rows_skipped += 1
        self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + 1


def normalize_name(name: str, fold_diacritics: bool = False) -> str:
    """Trim, collapse internal whitespace, and case-fold a place name.

    With `fold_diacritics`, combining marks are stripped after canonical
    decomposition ("São Paulo" -> "sao paulo"). Idempotent under both flags.
    """
    out = " ".join(name.split()).casefold()
    if fold_diacritics:
        out = "".join(c for c in unicodedata.normalize("NFD", out) if not unicodedata.combining(c))
    return out


class Gazetteer:
    """Immutable place table with a normalized-name candidate index.

    The index maps every normalized primary and alternate name to the ids
    of the entries carrying it; posting lists are kept in ascending id
    order so that downstream tie-breaking is reproducible. The lexicon and
    head table the builtin recognizer reads are derived from the index on
    first use, never saved. A gazetteer loaded from a saved index parses
    its entries and builds its index on first use as well.
    """

    def __init__(self, entries: dict[int, GazetteerEntry], index: dict[str, list[int]], fold_diacritics: bool):
        self.fold_diacritics = fold_diacritics
        self._digest: str | None = None
        self._derived: dict = {"tables": (entries, index)}
        # reentrant: deriving the lexicon reads `index`, which may itself be built on first use
        self._derive_lock = threading.RLock()
        self._unparsed: tuple[str, bytes] | None = None

    @classmethod
    def _from_index_body(cls, source: str, body: bytes, fold_diacritics: bool, digest: str) -> "Gazetteer":
        """A gazetteer whose digest is known and whose rows are parsed on first use of `entries` or `index`."""
        gazetteer = cls({}, {}, fold_diacritics)
        del gazetteer._derived["tables"]
        gazetteer._digest = digest
        gazetteer._unparsed = (source, body)
        return gazetteer

    @property
    def entries(self) -> dict[int, GazetteerEntry]:
        return self._derive("tables", self._parse_index_body)[0]

    @property
    def index(self) -> dict[str, list[int]]:
        return self._derive("tables", self._parse_index_body)[1]

    @classmethod
    def from_entries(cls, entries, fold_diacritics: bool = False) -> "Gazetteer":
        """Build a gazetteer from GazetteerEntry values, validating each."""
        by_id: dict[int, GazetteerEntry] = {}
        index: dict[str, list[int]] = {}
        for entry in entries:
            if entry.id in by_id:
                raise GazetteerError(f"duplicate entry id {entry.id}")
            if not entry.primary_name:
                raise GazetteerError(f"entry {entry.id}: empty primary name")
            if entry.population < 0:
                raise GazetteerError(f"entry {entry.id}: negative population")
            if not entry.point.is_valid():
                raise GazetteerError(f"entry {entry.id}: coordinate out of range: {entry.point}")
            by_id[entry.id] = entry
            _index_names(index, entry.id, (entry.primary_name, *entry.alternate_names), fold_diacritics)
        for postings in index.values():
            postings.sort()
        return cls(by_id, index, fold_diacritics)

    def lookup(self, name: str) -> list[GazetteerEntry]:
        """Entries whose primary or alternate normalized name equals the query, ascending id."""
        ids = self.index.get(normalize_name(name, self.fold_diacritics), ())
        return [self.entries[i] for i in ids]

    def lexicon(self, primary_only: bool = False) -> dict[str, GazetteerEntry]:
        """Normalized name -> its resolved entry: the most populous candidate, smallest id on ties.

        With `primary_only`, a name's candidates are only the entries whose
        normalized primary name it is; names left with none are omitted.
        Built on first use and memoized per flag.
        """
        return self._derive(("lexicon", primary_only), lambda: self._resolve_names(primary_only))

    def head_limits(self) -> dict[str, int]:
        """Leading word of a normalized name -> length of the longest name starting with it.

        Names that start with no word character have no head; a text
        n-gram that starts a word can match a name only if that word is a
        head and the n-gram is no longer than its limit.
        """
        return self._derive("heads", self._head_limits)

    def _derive(self, slot, build):
        # double-checked so that threads parsing at once build a table once
        table = self._derived.get(slot)
        if table is None:
            with self._derive_lock:
                table = self._derived.get(slot)
                if table is None:
                    table = self._derived[slot] = build()
        return table

    def _parse_index_body(self) -> tuple[dict[int, GazetteerEntry], dict[str, list[int]]]:
        source, body = self._unparsed
        stats = IngestStats()
        with gc_paused():
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise GazetteerError(f"{source}: malformed index rows: {exc}") from None
            # "\n" only: str.splitlines would also break names at U+0085, U+2028 or "\x1c"
            lines = text.removesuffix("\n").split("\n")
            # not hashed again: the header's digest was checked against these bytes
            entries, index, _ = _read_rows(lines, _DIGEST_COLUMNS, self.fold_diacritics, stats, hash_rows=False)
            if stats.rows_skipped:  # a repeated id too
                raise GazetteerError(f"{source}: {stats.rows_skipped} malformed index rows {stats.skip_reasons}")
        self._unparsed = None  # the entries replace the body bytes
        return entries, index

    def _resolve_names(self, primary_only: bool) -> dict[str, GazetteerEntry]:
        entries = self.entries
        if primary_only:
            primary = {i: normalize_name(e.primary_name, self.fold_diacritics) for i, e in entries.items()}
        lexicon = {}
        for key, ids in self.index.items():
            if primary_only:
                ids = [i for i in ids if primary[i] == key]
            if len(ids) == 1:
                lexicon[key] = entries[ids[0]]
            elif ids:
                # postings ascend by id, so max() keeps the smallest id on ties
                lexicon[key] = max((entries[i] for i in ids), key=lambda e: e.population)
        return lexicon

    def _head_limits(self) -> dict[str, int]:
        heads: dict[str, int] = {}
        match = WORD.match
        for key in self.index:
            head = match(key)
            if head is not None:
                head = head.group()
                if len(key) > heads.get(head, 0):
                    heads[head] = len(key)
        return heads

    def __len__(self) -> int:
        return len(self.entries)

    def digest(self) -> str:
        """Content digest over all entries, in id order, and the fold flag (memoized).

        `ingest_gazetteer` hashes the rows in its row pass when their ids
        ascend, and `load_index` takes the digest from the index header, so
        only a gazetteer built from entries, or from a table whose ids do
        not ascend, renders its entries here. The digest is the same either
        way.
        """
        if self._digest is None:
            h = _digest_hasher(self.fold_diacritics)
            entries = self.entries
            for entry_id in sorted(entries):
                h.update(_digest_row(entries[entry_id]).encode("utf-8"))
            self._digest = h.hexdigest()
        return self._digest


def _digest_hasher(fold_diacritics: bool):
    return hashlib.sha256(f"fold={fold_diacritics}\n".encode())


def _digest_row(e: GazetteerEntry) -> str:
    """The line `digest()` hashes for an entry; a saved index's body is these lines in id order."""
    return (
        f"{e.id}\t{e.primary_name}\t{','.join(e.alternate_names)}\t"
        f"{e.point.lat!r}\t{e.point.lon!r}\t{e.feature_class}\t"
        f"{e.feature_code}\t{e.population}\t{e.country}\n"
    )


# The fields of a digest row, as a column map for the row parser.
_DIGEST_COLUMNS = {
    "id": 0,
    "name": 1,
    "alternates": 2,
    "lat": 3,
    "lon": 4,
    "feature_class": 5,
    "feature_code": 6,
    "population": 7,
    "country": 8,
}


def _check_schema(schema) -> dict:
    """The column map of a schema: "geonames", or a map from GEONAMES_COLUMNS keys to JSON integers >= 0."""
    if schema == "geonames":
        return GEONAMES_COLUMNS
    if not isinstance(schema, dict):
        raise GazetteerError(f"schema must be 'geonames' or a column map, got {schema!r}")
    for key in _REQUIRED_COLUMNS:
        if key not in schema:
            raise GazetteerError(f"column map missing required key {key!r}")
    for key, col in schema.items():
        if key not in GEONAMES_COLUMNS:
            raise GazetteerError(f"column map has unknown key {key!r}; the keys are {', '.join(GEONAMES_COLUMNS)}")
        if not is_json_int(col) or col < 0:
            raise GazetteerError(f"column map entry {key!r} must be a non-negative integer, got {col!r}")
    return schema


def _index_names(index: dict[str, list[int]], entry_id: int, names: tuple[str, ...], fold_diacritics: bool) -> None:
    """Add an entry's id to the posting list of each of its normalized names (the one indexing rule).

    A posting list stays in ascending id order while entries come in
    ascending id order; otherwise the caller sorts it afterwards.
    """
    for name in names:
        key = " ".join(name.split()).casefold()  # normalize_name, inlined: this runs for every name of every row
        if fold_diacritics:
            key = normalize_name(key, True)
        if key:
            postings = index.get(key)
            if postings is None:
                index[key] = [entry_id]
            elif postings[-1] != entry_id:
                postings.append(entry_id)


# Digest rows are hashed in joined chunks of this many, not one call per row and not all at once.
_DIGEST_CHUNK_ROWS = 1024


def _read_rows(lines, cols: dict, fold_diacritics: bool, stats: IngestStats, hash_rows: bool = True):
    """The one reader of tab-separated place rows: returns (entries by id, name index, digest or None).

    In one pass over the lines, each row is parsed and validated, a row
    repeating an earlier id is skipped, and the entry is added to the name
    index. Invalid and repeated rows are tallied in `stats`. With
    `hash_rows`, each entry's digest row is hashed as it comes while the ids
    ascend, and the digest equals `Gazetteer.digest()`; at the first id
    lower than the one before, hashing stops and the digest is None.
    """
    id_c, name_c = cols["id"], cols["name"]
    lat_c, lon_c = cols["lat"], cols["lon"]
    alt_c = cols.get("alternates")
    pop_c = cols.get("population")
    fcl_c = cols.get("feature_class")
    fco_c = cols.get("feature_code")
    cty_c = cols.get("country")
    max_col = max(cols.values())
    split_at = max_col + 1  # columns past the last one read stay in one unsplit tail
    intern = sys.intern
    entries: dict[int, GazetteerEntry] = {}
    index: dict[str, list[int]] = {}
    hasher = _digest_hasher(fold_diacritics) if hash_rows else None
    chunk: list[GazetteerEntry] = []
    ascending = True
    last_id = -math.inf
    for line in lines:
        stats.rows_read += 1
        parts = line.split("\t", split_at)
        if len(parts) <= split_at:
            if len(parts) <= max_col:
                stats.skip("short row")
                continue
            parts[max_col] = parts[max_col].rstrip("\n")  # the last column read ends the line
        try:
            entry_id = int(parts[id_c])
        except ValueError:
            stats.skip("bad id")
            continue
        name = parts[name_c].strip()
        if not name:
            stats.skip("empty name")
            continue
        try:
            lat = float(parts[lat_c])
            lon = float(parts[lon_c])
        except ValueError:
            stats.skip("bad coordinate")
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):  # NaN fails every comparison
            stats.skip("coordinate out of range")
            continue
        population = 0
        if pop_c is not None and parts[pop_c]:
            try:
                population = int(parts[pop_c])
            except ValueError:
                stats.skip("bad population")
                continue
            if population < 0:
                stats.skip("bad population")
                continue
        if entry_id in entries:
            stats.skip("duplicate id")
            continue
        alternates = ()
        if alt_c is not None and parts[alt_c]:
            alternates = tuple(a.strip() for a in parts[alt_c].split(",") if a.strip())
        # positional: passed as keywords, these arguments made the call about 1.5 times as slow
        entry = entries[entry_id] = GazetteerEntry(
            entry_id,
            name,
            alternates,
            GeoPoint(lat, lon),
            # few distinct values over many rows: one shared string each
            intern(parts[fcl_c].strip()) if fcl_c is not None else "",
            intern(parts[fco_c].strip()) if fco_c is not None else "",
            population,
            intern(parts[cty_c].strip()) if cty_c is not None else "",
        )
        _index_names(index, entry_id, (name, *alternates), fold_diacritics)
        if entry_id < last_id:
            ascending = False
            hasher = None
        last_id = entry_id
        if hasher is not None:
            chunk.append(entry)
            if len(chunk) == _DIGEST_CHUNK_ROWS:
                hasher.update("".join(map(_digest_row, chunk)).encode("utf-8"))
                chunk.clear()
    if not ascending:
        for postings in index.values():
            postings.sort()
    if hasher is None:
        return entries, index, None
    hasher.update("".join(map(_digest_row, chunk)).encode("utf-8"))
    return entries, index, hasher.hexdigest()


def ingest_gazetteer(
    path: str | Path, schema="geonames", fold_diacritics: bool = False
) -> tuple[Gazetteer, IngestStats]:
    """Ingest a tab-separated place table in one pass over its rows.

    `schema` is "geonames" for the 19-column GeoNames layout or a dict of
    zero-based column indices with at least id/name/lat/lon (optional:
    alternates, population, feature_class, feature_code, country). Rows
    violating field constraints, and later rows repeating an id, are
    skipped and tallied in the returned IngestStats, not fatal; an
    unreadable file or zero valid rows is.

    The same pass builds the entries and the name index and, while the ids
    ascend, hashes the rows, so the returned gazetteer already knows its
    `digest()`. A table whose ids do not ascend gets the same digest,
    computed on first use.
    """
    cols = _check_schema(schema)
    stats = IngestStats()
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise GazetteerError(f"cannot read gazetteer file {path}: {exc}") from exc
    with fh, gc_paused():
        entries, index, digest = _read_rows(fh, cols, fold_diacritics, stats)
    stats.rows_ingested = len(entries)
    if not entries:
        raise GazetteerError(f"no valid rows in gazetteer file {path}")
    gazetteer = Gazetteer(entries, index, fold_diacritics)
    gazetteer._digest = digest
    return gazetteer, stats


# A saved index is this JSON header line, which also holds the fold flag and
# the digest, followed by the digest rows of all entries in id order: the
# body is exactly what `digest()` hashes after its fold line. An index
# without this layout marker predates it.
_INDEX_HEADER = {"format": "geobench-index", "layout": "digest-rows"}


def save_index(gazetteer: Gazetteer, path: str | Path) -> None:
    """Write a built gazetteer to an index file reloadable by load_index.

    Raises GazetteerError, naming the entry, if an entry would not read
    back equal to itself (say, a name with a tab or an alternate name with
    a comma).
    """
    entries = gazetteer.entries
    ids = sorted(entries)
    rows = [_digest_row(entries[entry_id]) for entry_id in ids]
    # all checked before the file is opened, so a refused entry leaves no partial index
    reread, _, _ = _read_rows(rows, _DIGEST_COLUMNS, gazetteer.fold_diacritics, IngestStats(), hash_rows=False)
    for entry_id, row in zip(ids, rows):
        if row.count("\n") != 1 or reread.get(entry_id) != entries[entry_id]:
            raise GazetteerError(f"entry {entry_id} cannot be saved: its fields do not survive an index row")
    body = "".join(rows).encode("utf-8")
    h = _digest_hasher(gazetteer.fold_diacritics)
    h.update(body)
    header = {**_INDEX_HEADER, "fold_diacritics": gazetteer.fold_diacritics, "digest": h.hexdigest()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(body)


def load_index(path: str | Path) -> Gazetteer:
    """Reload a gazetteer written by save_index.

    The body is checked against the digest in the header, and a file that
    fails the check is refused. Its rows are parsed only when the
    gazetteer's entries or name index are first used, so a caller that
    needs only `digest()` pays for one read and one hash.
    """
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            body = fh.read()
    except OSError as exc:
        raise GazetteerError(f"cannot read index file {path}: {exc}") from exc
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GazetteerError(f"malformed index header in {path}: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != _INDEX_HEADER["format"]:
        raise GazetteerError(f"{path} is not a saved gazetteer index")
    if header.get("layout") != _INDEX_HEADER["layout"]:
        raise GazetteerError(
            f"{path} is a gazetteer index in an older layout; rebuild it with `geobench gazetteer --out-index`"
        )
    fold = header.get("fold_diacritics", False)
    h = _digest_hasher(fold)
    h.update(body)
    digest = h.hexdigest()
    if digest != header.get("digest"):
        raise GazetteerError(f"{path}: malformed index rows: the body does not match the digest in its header")
    if not body:
        raise GazetteerError(f"no entries in index file {path}")
    return Gazetteer._from_index_body(str(path), body, fold, digest)

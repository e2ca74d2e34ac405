"""Adapters that drive external geoparsers over a line or HTTP protocol.

Process adapter: the harness writes one JSON line {"id": str, "text": str}
to the child's stdin and reads one JSON line {"id": str, "toponyms":
[{"start": int, "end": int, "name": str, "lat": num?, "lon": num?}]} back;
the child stays resident across documents. HTTP adapter: the same request
object is POSTed to <endpoint>/parse and the same response object is
expected with status 200.

Individually invalid predictions are dropped and counted (see
geoparser.coerce_predictions); a malformed response as a whole raises
AdapterProtocolError with the raw payload attached for diagnostics.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading

import requests

from .corpus import Document
from .geoparser import PredictedToponym, coerce_predictions

DEFAULT_TIMEOUT = 120.0


class AdapterError(Exception):
    """Base class for external geoparser failures."""


class AdapterTimeout(AdapterError):
    """The external geoparser did not answer within the per-document timeout."""


class AdapterProtocolError(AdapterError):
    """The external geoparser sent a malformed response.

    The raw payload is kept on .payload for debugging.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


def _request_line(document: Document) -> str:
    return json.dumps({"id": document.id, "text": document.text}, ensure_ascii=False)


def parse_response(document: Document, payload, raw) -> tuple[list[PredictedToponym], int]:
    """Validate a decoded response object and coerce its toponyms."""
    if not isinstance(payload, dict):
        raise AdapterProtocolError("response is not a JSON object", payload=raw)
    if payload.get("id") != document.id:
        raise AdapterProtocolError(
            f"response id {payload.get('id')!r} does not match request id {document.id!r}", payload=raw
        )
    toponyms = payload.get("toponyms")
    if not isinstance(toponyms, list):
        raise AdapterProtocolError("response 'toponyms' is not a list", payload=raw)
    return coerce_predictions(document.text, toponyms)


class ProcessGeoparser:
    """Drives one resident child process over the stdin/stdout line protocol.

    Each instance owns its child; use one instance per worker thread for
    concurrent dispatch. After a timeout or a protocol error the child is
    replaced by a fresh one, so a late answer cannot reach a later document.
    """

    def __init__(self, command: list[str], timeout: float = DEFAULT_TIMEOUT):
        self.command = command
        self.timeout = timeout
        self._start()

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            raise AdapterError(f"cannot start external geoparser {self.command!r}: {exc}") from exc
        # each child gets its own queue, so lines from a killed child are never read
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, args=(self._proc.stdout, self._lines), daemon=True).start()

    @staticmethod
    def _pump(stdout, lines: queue.Queue):
        with stdout:
            for line in stdout:
                lines.put(line)
        lines.put(None)  # EOF sentinel

    def parse_document(self, document: Document) -> tuple[list[PredictedToponym], int]:
        try:
            return self._exchange(document)
        except (AdapterTimeout, AdapterProtocolError):
            self._proc.kill()
            self.close()
            self._start()
            raise

    def _exchange(self, document: Document) -> tuple[list[PredictedToponym], int]:
        try:
            self._proc.stdin.write(_request_line(document) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise AdapterProtocolError(f"external geoparser closed stdin: {exc}") from exc
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise AdapterTimeout(f"no response for document {document.id!r} within {self.timeout}s") from None
        if line is None:
            raise AdapterProtocolError(f"external geoparser closed stdout before answering {document.id!r}")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AdapterProtocolError(f"response is not valid JSON: {exc}", payload=line) from None
        return parse_response(document, payload, line)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=0.5)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


class HttpGeoparser:
    """POSTs documents to <endpoint>/parse and validates the responses."""

    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT):
        self.url = endpoint.rstrip("/") + "/parse"
        self.timeout = timeout
        self._session = requests.Session()

    def parse_document(self, document: Document) -> tuple[list[PredictedToponym], int]:
        try:
            resp = self._session.post(
                self.url, json={"id": document.id, "text": document.text}, timeout=self.timeout
            )
        except requests.Timeout:
            raise AdapterTimeout(f"no response for document {document.id!r} within {self.timeout}s") from None
        except requests.RequestException as exc:
            raise AdapterError(f"request to {self.url} failed: {exc}") from exc
        if resp.status_code != 200:
            raise AdapterProtocolError(f"HTTP {resp.status_code} from {self.url}", payload=resp.text)
        try:
            payload = resp.json()
        except ValueError as exc:
            raise AdapterProtocolError(f"response is not valid JSON: {exc}", payload=resp.text) from None
        return parse_response(document, payload, resp.text)

    def close(self) -> None:
        self._session.close()

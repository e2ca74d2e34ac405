import json
import os
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import geobench

import pytest

from geobench import (
    AdapterError,
    AdapterProtocolError,
    AdapterTimeout,
    Document,
    GeoPoint,
    HttpGeoparser,
    ProcessGeoparser,
)
from helpers import write_replay_child

DOC = Document("d1", "Berlin and Paris brace", ())
FIXTURE = {"d1": [{"start": 0, "end": 6, "name": "Berlin", "lat": 52.52, "lon": 13.405}]}


def make_child(tmp_path, body: str) -> list[str]:
    script = tmp_path / "child.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


class TestProcessAdapter:
    def test_round_trip_unchanged(self, tmp_path):
        parser = ProcessGeoparser(write_replay_child(tmp_path, FIXTURE))
        try:
            predictions, dropped = parser.parse_document(DOC)
        finally:
            parser.close()
        assert dropped == 0
        assert len(predictions) == 1
        assert (predictions[0].start, predictions[0].end, predictions[0].name) == (0, 6, "Berlin")
        assert predictions[0].point == GeoPoint(52.52, 13.405)

    def test_child_stays_resident_across_documents(self, tmp_path):
        fixture = {f"d{i}": [{"start": 0, "end": 2, "name": "ab"}] for i in range(5)}
        parser = ProcessGeoparser(write_replay_child(tmp_path, fixture))
        try:
            pid = parser._proc.pid
            for i in range(5):
                predictions, _ = parser.parse_document(Document(f"d{i}", "ab cd", ()))
                assert predictions[0].name == "ab"
            assert parser._proc.pid == pid
            assert parser._proc.poll() is None
        finally:
            parser.close()
        assert parser._proc.poll() is not None

    def test_invalid_span_dropped_and_counted(self, tmp_path):
        fixture = {"d1": [{"start": 0, "end": 10_000, "name": "x"}, {"start": 0, "end": 6, "name": "Berlin"}]}
        parser = ProcessGeoparser(write_replay_child(tmp_path, fixture))
        try:
            predictions, dropped = parser.parse_document(DOC)
        finally:
            parser.close()
        assert dropped == 1
        assert len(predictions) == 1

    def test_malformed_json_raises_with_payload(self, tmp_path):
        command = make_child(tmp_path, "import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n")
        parser = ProcessGeoparser(command)
        try:
            with pytest.raises(AdapterProtocolError) as info:
                parser.parse_document(DOC)
            assert "not json" in info.value.payload
        finally:
            parser.close()

    def test_invalid_utf8_raises_protocol_error_at_once(self, tmp_path):
        command = make_child(
            tmp_path, "import sys\nfor line in sys.stdin:\n    sys.stdout.buffer.write(b'\\xff not utf-8\\n')\n"
            "    sys.stdout.flush()\n"
        )
        parser = ProcessGeoparser(command, timeout=5)
        try:
            with pytest.raises(AdapterProtocolError, match="not valid JSON") as info:
                parser.parse_document(DOC)
            assert "not utf-8" in info.value.payload
        finally:
            parser.close()

    def test_id_mismatch_raises(self, tmp_path):
        command = make_child(
            tmp_path,
            "import sys, json\nfor line in sys.stdin:\n"
            "    print(json.dumps({'id': 'other', 'toponyms': []}), flush=True)\n",
        )
        parser = ProcessGeoparser(command)
        try:
            with pytest.raises(AdapterProtocolError, match="does not match"):
                parser.parse_document(DOC)
        finally:
            parser.close()

    def test_timeout(self, tmp_path):
        command = make_child(tmp_path, "import sys, time\nfor line in sys.stdin:\n    time.sleep(30)\n")
        parser = ProcessGeoparser(command, timeout=0.3)
        try:
            with pytest.raises(AdapterTimeout):
                parser.parse_document(DOC)
        finally:
            parser.close()

    def test_timeout_costs_only_the_slow_document(self, tmp_path):
        # the late answer to doc-002 must not be read as the answer to a later document
        command = make_child(
            tmp_path,
            "import json, sys, time\nfor line in sys.stdin:\n"
            "    request = json.loads(line)\n"
            "    if request['id'] == 'doc-002':\n"
            "        time.sleep(1.5)\n"
            "    print(json.dumps({'id': request['id'], 'toponyms': []}), flush=True)\n",
        )
        parser = ProcessGeoparser(command, timeout=0.5)
        failed = []
        try:
            for i in range(8):
                try:
                    parser.parse_document(Document(f"doc-{i:03d}", "some text", ()))
                except AdapterError:
                    failed.append(f"doc-{i:03d}")
        finally:
            parser.close()
        assert failed == ["doc-002"]

    def test_child_exiting_raises_protocol_error(self, tmp_path):
        command = make_child(tmp_path, "import sys\nsys.exit(0)\n")
        parser = ProcessGeoparser(command, timeout=5)
        try:
            with pytest.raises(AdapterProtocolError, match="closed"):
                parser.parse_document(DOC)
        finally:
            parser.close()

    def test_unstartable_command(self):
        with pytest.raises(AdapterError, match="cannot start"):
            ProcessGeoparser(["/nonexistent/geoparser-binary"])

    def test_one_shot_parse_op(self, tmp_path):
        from geobench import GeoparserSpec, parse

        spec = GeoparserSpec("external-process", "echo", {"command": write_replay_child(tmp_path, FIXTURE)})
        predictions = parse(spec, DOC)
        assert [(p.start, p.end) for p in predictions] == [(0, 6)]


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"

    def do_POST(self):
        if self.path != "/parse":
            self.send_error(404)
            return
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        if self.behavior == "ok":
            body = json.dumps({"id": request["id"], "toponyms": _Handler.toponyms}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.behavior == "error":
            self.send_error(500, "boom")
        elif self.behavior == "garbage":
            body = b"<html>not json</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.behavior == "slow":
            import time

            time.sleep(1.5)
            self.send_error(500)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.toponyms = FIXTURE["d1"]
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHttpAdapter:
    def test_round_trip(self, http_server):
        parser = HttpGeoparser(http_server)
        predictions, dropped = parser.parse_document(DOC)
        parser.close()
        assert dropped == 0
        assert predictions[0].point == GeoPoint(52.52, 13.405)

    def test_invalid_prediction_dropped(self, http_server):
        _Handler.toponyms = [{"start": 3, "end": 1, "name": "x"}]
        parser = HttpGeoparser(http_server)
        predictions, dropped = parser.parse_document(DOC)
        parser.close()
        assert predictions == [] and dropped == 1

    def test_non_200_raises(self, http_server):
        _Handler.behavior = "error"
        parser = HttpGeoparser(http_server)
        with pytest.raises(AdapterProtocolError, match="HTTP 500"):
            parser.parse_document(DOC)
        parser.close()

    def test_non_json_body_raises_with_payload(self, http_server):
        _Handler.behavior = "garbage"
        parser = HttpGeoparser(http_server)
        with pytest.raises(AdapterProtocolError) as info:
            parser.parse_document(DOC)
        parser.close()
        assert "not json" in info.value.payload

    def test_timeout(self, http_server):
        _Handler.behavior = "slow"
        parser = HttpGeoparser(http_server, timeout=0.3)
        with pytest.raises(AdapterTimeout):
            parser.parse_document(DOC)
        parser.close()

    def test_connection_refused(self):
        parser = HttpGeoparser("http://127.0.0.1:1")  # nothing listens on port 1
        with pytest.raises(AdapterError):
            parser.parse_document(DOC)
        parser.close()


class _KeptAliveHandler(BaseHTTPRequestHandler):
    """Answers with the request's id over HTTP/1.1; 'slow' is answered after a second."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    drop_after_answer = False

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if request["id"] == "slow":
            time.sleep(1.0)
        body = json.dumps({"id": request["id"], "toponyms": FIXTURE.get(request["id"], [])}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        # closes the connection without having sent 'Connection: close'
        self.close_connection = self.drop_after_answer

    def log_message(self, *args):
        pass


@pytest.fixture
def kept_alive_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeptAliveHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    _KeptAliveHandler.drop_after_answer = False
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestHttpConnection:
    def test_late_answer_never_reaches_the_next_document(self, kept_alive_server):
        parser = HttpGeoparser(f"http://127.0.0.1:{kept_alive_server.server_port}", timeout=0.3)
        try:
            with pytest.raises(AdapterTimeout):
                parser.parse_document(Document("slow", "some text", ()))
            time.sleep(1.0)  # the late answer has been sent by now
            predictions, dropped = parser.parse_document(DOC)
        finally:
            parser.close()
        assert dropped == 0
        assert [(p.start, p.end, p.name) for p in predictions] == [(0, 6, "Berlin")]

    def test_connection_dropped_by_the_server_is_reopened(self, kept_alive_server):
        _KeptAliveHandler.drop_after_answer = True
        parser = HttpGeoparser(f"http://127.0.0.1:{kept_alive_server.server_port}/")
        try:
            for _ in range(5):
                predictions, _ = parser.parse_document(DOC)
                assert predictions[0].name == "Berlin"
        finally:
            parser.close()

    @pytest.mark.parametrize("endpoint", ["localhost:8000", "ftp://h/", "http://u:p@h/", "http:///parse"])
    def test_endpoint_must_be_http_with_a_host_and_no_user_info(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            HttpGeoparser(endpoint)


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf"), True, "5"], ids=repr)
@pytest.mark.parametrize(
    "make",
    [
        lambda timeout: ProcessGeoparser([sys.executable, "-c", "pass"], timeout=timeout),
        lambda timeout: HttpGeoparser("http://127.0.0.1:9/", timeout=timeout),
    ],
    ids=["process", "http"],
)
def test_timeout_must_be_a_finite_number_above_zero(make, timeout):
    with pytest.raises(ValueError, match=re.escape(repr(timeout))):
        make(timeout)


def test_cli_import_loads_no_http_library():
    # certifi is left out: a site .pth file of some Python installations preloads it
    libraries = ["requests", "urllib3", "idna", "charset_normalizer"]
    code = f"import sys, geobench.cli; print(sorted(set({libraries}) & set(sys.modules)))"
    src = str(Path(geobench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"

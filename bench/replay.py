"""Replay geoparser for the external-overlap workload.

Answers every document with the predictions planted for it in a fixture
file ({doc_id: [toponym, ...]}), over either external-geoparser protocol:

    python3 replay.py process FIXTURE   # JSON lines on stdin/stdout
    python3 replay.py http FIXTURE      # HTTP server; prints its port, then serves

The HTTP server keeps connections alive (HTTP/1.1), as a deployed service
would, and stops when its stdin closes.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def _answer(fixture: dict, request: dict) -> bytes:
    return json.dumps({"id": request["id"], "toponyms": fixture.get(request["id"], [])}).encode("utf-8")


def serve_process(fixture: dict) -> None:
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        out.write(_answer(fixture, json.loads(line)) + b"\n")
        out.flush()


def serve_http(fixture: dict) -> None:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in separate writes; with Nagle's algorithm
        # on, the client's delayed ACK would stall every response
        disable_nagle_algorithm = True

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            payload = _answer(fixture, json.loads(body))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, format, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    # shutdown() must come from another thread than serve_forever()
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def main(argv: list[str]) -> int:
    mode, fixture_path = argv
    with open(fixture_path, encoding="utf-8") as fh:
        fixture = json.load(fh)
    {"process": serve_process, "http": serve_http}[mode](fixture)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

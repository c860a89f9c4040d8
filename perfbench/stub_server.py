"""Loopback completion server for the ``augment_http`` workload.

Speaks capaug's wire contract (POST ``{"prompt", ...}`` answered by
``{"text"}``) and answers from ``mock_complete``, so responses are realistic
and deterministic. Each request waits a fixed service delay. A deterministic
share of prompts, picked by hashing the prompt with the seed, is refused with
HTTP 400: that status is not retried by the client, whose retry backoff is
unseeded and would make runs unsteady.

Usage: python3 perfbench/stub_server.py --seed N --delay-ms MS --refuse-share FRACTION

Prints the bound port on the first line of stdout. ``GET /stats`` returns the
request and refusal counts so far. Runs until terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from capaug.llm import mock_complete  # noqa: E402


def is_refused(prompt: str, seed: int, share: float) -> bool:
    digest = hashlib.blake2b(f"refuse\x00{seed}\x00{prompt}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64 < share


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format, *args):
        pass

    def _send(self, status: int, reason: str, doc: dict) -> None:
        # Status line, headers and body leave in one write: split writes meet
        # the client's delayed ACK and measure that stall instead of capaug.
        body = json.dumps(doc).encode("utf-8")
        head = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        server = self.server
        with server.lock:
            doc = {"requests": server.requests, "refused": server.refused}
        self._send(200, "OK", doc)

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        prompt = json.loads(self.rfile.read(length))["prompt"]
        refused = is_refused(prompt, server.seed, server.refuse_share)
        with server.lock:
            server.requests += 1
            server.refused += refused
        time.sleep(server.delay_s)
        if refused:
            self._send(400, "Bad Request", {"error": "refused by stub policy"})
        else:
            self._send(200, "OK", {"text": mock_complete(prompt, server.seed).text})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--refuse-share", type=float, required=True)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.seed, server.delay_s = args.seed, args.delay_ms / 1000.0
    server.refuse_share = args.refuse_share
    server.lock, server.requests, server.refused = threading.Lock(), 0, 0
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

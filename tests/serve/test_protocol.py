"""Wire format: address syntax, request parsing, response framing."""

import asyncio
import json

import pytest

from repro.serve.protocol import (MAX_BODY_BYTES, ProtocolError,
                                  error_bytes, format_address,
                                  parse_address, read_request,
                                  response_bytes)


class TestParseAddress:
    def test_unix_prefix(self):
        assert parse_address("unix:/run/serve.sock") == \
            ("unix", "/run/serve.sock")

    def test_bare_absolute_path(self):
        assert parse_address("/tmp/s.sock") == ("unix", "/tmp/s.sock")

    def test_tcp_prefix(self):
        assert parse_address("tcp:127.0.0.1:8731") == \
            ("tcp", ("127.0.0.1", 8731))

    def test_bare_host_port(self):
        assert parse_address("localhost:9000") == \
            ("tcp", ("localhost", 9000))

    def test_whitespace_stripped(self):
        assert parse_address("  unix:/a.sock \n") == ("unix", "/a.sock")

    @pytest.mark.parametrize("bad", ["", "unix:", "justahost",
                                     "host:notaport", ":8000"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_format_round_trip(self):
        for address in ["unix:/x/y.sock", "127.0.0.1:8000"]:
            kind, target = parse_address(address)
            assert parse_address(format_address(kind, target)) == \
                (kind, target)


def parse(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


class TestReadRequest:
    def test_get_with_query(self):
        request = parse(b"GET /status?id=job-3 HTTP/1.1\r\n"
                        b"Host: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/status"
        assert request.query == {"id": "job-3"}
        assert request.body == b""
        assert request.json() == {}

    def test_post_with_body(self):
        body = json.dumps({"points": []}).encode()
        request = parse(b"POST /submit HTTP/1.1\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body)
        assert request.method == "POST"
        assert request.json() == {"points": []}

    def test_closed_connection_returns_none(self):
        assert parse(b"") is None

    def test_truncated_head(self):
        with pytest.raises(ProtocolError):
            parse(b"GET /status HTTP/1.1\r\n")

    def test_bad_request_line(self):
        with pytest.raises(ProtocolError):
            parse(b"NONSENSE\r\n\r\n")

    def test_non_http_version(self):
        with pytest.raises(ProtocolError):
            parse(b"GET /x SPDY/9\r\n\r\n")

    def test_bad_content_length(self):
        with pytest.raises(ProtocolError):
            parse(b"POST /submit HTTP/1.1\r\n"
                  b"Content-Length: banana\r\n\r\nxx")

    def test_oversized_body_refused(self):
        with pytest.raises(ProtocolError):
            parse(b"POST /submit HTTP/1.1\r\n"
                  + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode())

    def test_oversized_head_refused(self):
        filler = b"X-Pad: " + b"a" * (70 * 1024) + b"\r\n"
        with pytest.raises(ProtocolError):
            parse(b"GET / HTTP/1.1\r\n" + filler + b"\r\n")

    def test_body_not_json(self):
        request = parse(b"POST /submit HTTP/1.1\r\n"
                        b"Content-Length: 3\r\n\r\n{{{")
        with pytest.raises(ProtocolError):
            request.json()


class TestResponseBytes:
    def split(self, payload: bytes):
        head, _, body = payload.partition(b"\r\n\r\n")
        return head.decode("latin-1").split("\r\n"), body

    def test_framing(self):
        lines, body = self.split(response_bytes(200, {"ok": True}))
        assert lines[0] == "HTTP/1.1 200 OK"
        assert f"Content-Length: {len(body)}" in lines
        assert "Connection: close" in lines
        assert json.loads(body) == {"ok": True}

    @pytest.mark.parametrize("status, reason", [
        (200, "OK"), (202, "Accepted"), (400, "Bad Request"),
        (404, "Not Found"), (405, "Method Not Allowed"), (409, "Conflict"),
        (410, "Gone"), (413, "Payload Too Large"),
        (500, "Internal Server Error"), (503, "Service Unavailable"),
        (599, "Unknown")])
    def test_status_line_and_json_content_type(self, status, reason):
        lines, body = self.split(response_bytes(status, {"status": status}))
        assert lines[0] == f"HTTP/1.1 {status} {reason}"
        assert "Content-Type: application/json" in lines
        assert json.loads(body) == {"status": status}

    def test_error_payload(self):
        lines, body = self.split(error_bytes(404, "unknown job"))
        assert lines[0].startswith("HTTP/1.1 404")
        assert json.loads(body) == {"error": "unknown job"}

    def test_round_trips_through_reader(self):
        # a response is itself parseable enough for the test client
        payload = response_bytes(503, {"error": "draining"})
        assert b"503 Service Unavailable" in payload

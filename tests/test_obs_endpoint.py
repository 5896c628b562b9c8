"""The shared endpoint server, under both of its users: monitor and serve."""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.obs.monitor import MonitorError, SweepMonitor, SweepStatus
from repro.serve import PlanServer, PlanService, ServeError

#: The route set both servers serve.
SHARED = ["/status", "/metrics", "/logs", "/debug/bundle"]

#: kind -> (error class, port-error text, Server header token, 404 list)
SERVERS = {
    "monitor": (
        MonitorError,
        "invalid monitor port",
        "repro-monitor/1",
        SHARED,
    ),
    "serve": (
        ServeError,
        "invalid serve port",
        "repro-serve/1",
        [*SHARED, "/healthz", "/readyz", "POST /plan"],
    ),
}


def make_server(kind, port=0):
    if kind == "monitor":
        return SweepMonitor(SweepStatus(), port=port)
    return PlanServer(PlanService(jobs=1), port=port)


def request(url, data=None, timeout=10.0):
    """GET (or POST ``data``); returns (code, headers, body bytes)."""
    body = None if data is None else json.dumps(data).encode("utf-8")
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, data=body), timeout=timeout
        ) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


@pytest.fixture(params=sorted(SERVERS))
def kind(request):
    return request.param


@pytest.fixture
def server(kind):
    with make_server(kind) as running:
        if kind == "serve":
            running.service.start()
        try:
            yield running
        finally:
            if kind == "serve":
                running.service.close()


class TestEndpointServers:
    def test_query_string_does_not_change_routing(self, server):
        for path in ("/status", "/metrics"):
            code, headers, _ = request(server.url + path)
            assert code == 200
            code, query_headers, _ = request(server.url + path + "?x=1")
            assert code == 200
            assert query_headers["Content-Type"] == headers["Content-Type"]

    def test_unknown_path_404_lists_endpoints(self, kind, server):
        code, headers, body = request(server.url + "/nope?x=1")
        assert code == 404
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert headers["Server"].startswith(SERVERS[kind][2])
        assert json.loads(body) == {
            "error": "unknown path '/nope'",
            "endpoints": SERVERS[kind][3],
        }

    def test_logs_rejects_non_integer_n_alike(self, server):
        code, headers, body = request(server.url + "/logs?n=abc")
        assert code == 400
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert json.loads(body) == {
            "error": "query parameter n must be an integer"
        }
        code, _, body = request(server.url + "/logs?n=1")
        assert code == 200
        tail = json.loads(body)
        assert tail["schema"] == "repro-logs-tail/v1"
        assert tail["count"] == len(tail["records"]) <= 1

    def test_post_routing(self, kind, server):
        if kind == "monitor":
            # The monitor routes no POST at all: 501, as http.server does.
            code, _, _ = request(server.url + "/status", data={})
            assert code == 501
            return
        code, _, body = request(server.url + "/other?x=1", data={})
        assert code == 404
        assert json.loads(body) == {"error": "unknown path '/other'"}
        code, _, body = request(server.url + "/plan?x=1", data={"n": -4})
        assert code == 400
        assert json.loads(body)["error"] == "bad-request"

    def test_invalid_port_rejected(self, kind):
        error, text, _, _ = SERVERS[kind]
        for port in (-1, 70000):
            with pytest.raises(error, match=text):
                make_server(kind, port=port)

    def test_close_is_idempotent_and_releases_port(self, kind):
        running = make_server(kind).start()
        port = running.port
        running.close()
        running.close()
        # The port is free again: a new server can bind it.
        make_server(kind, port=port).close()

    def test_start_is_idempotent(self, kind):
        running = make_server(kind).start().start()
        try:
            code, _, _ = request(running.url + "/status")
            assert code == 200
        finally:
            running.close()


def test_sweep_imports_load_no_http_stack():
    """Only serving loads http.server and the http.client, ssl and email
    it pulls in; a sweep process keeps every result in memory, so its
    peak RSS should not carry them."""
    heavy = ("http.server", "http.client", "ssl", "email")
    code = (
        "import sys\n"
        "import repro, repro.sweep\n"
        f"print([m for m in {heavy!r} if m in sys.modules])\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"

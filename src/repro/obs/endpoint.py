"""The one embedded HTTP server behind every ``repro`` endpoint set.

:class:`~repro.obs.monitor.SweepMonitor` (``repro sweep --monitor``)
and :class:`~repro.serve.app.PlanServer` (``repro serve``) are both an
:class:`EndpointServer`.  Each supplies only its route table -- a map
from ``(method, path)`` to a callable that answers through the
:class:`EndpointHandler` it is given -- and this module owns the rest:
port validation, bind, the daemon serving thread, idempotent
``close()``, context-manager use, JSON/byte replies and routing of
``http.server`` chatter into the structured logger.

Routing uses the path with its query string split off, for every
method, so ``GET /metrics?x=1`` reaches ``/metrics``.  An unknown GET
path answers 404 with the server's endpoint list; a method the server
routes nothing for answers 501 like a bare ``http.server`` handler.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.obs.logging import get_logger

#: One endpoint: answers a request through the handler it is given.
Route = Callable[["EndpointHandler"], None]


class EndpointHandler(BaseHTTPRequestHandler):
    """Dispatches each request to its :class:`EndpointServer`'s routes."""

    #: Set by :class:`EndpointServer` on the server object.
    server: Any
    #: The raw query string of the current request (``""`` if none).
    query = ""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Route one GET request."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Route one POST request."""
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        endpoint: EndpointServer = self.server.endpoint
        split = urlsplit(self.path)
        self.query = split.query
        route = endpoint.routes.get((method, split.path))
        if route is not None:
            route(self)
        elif all(routed != method for routed, _ in endpoint.routes):
            self.send_error(
                HTTPStatus.NOT_IMPLEMENTED, f"Unsupported method ({method!r})"
            )
        else:
            body: dict[str, Any] = {"error": f"unknown path {split.path!r}"}
            if method == "GET":
                body["endpoints"] = [
                    path if routed == "GET" else f"{routed} {path}"
                    for routed, path in endpoint.routes
                ]
            self.send_json(body, code=404)

    def send_json(
        self,
        payload: dict[str, Any],
        code: int = 200,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Reply with ``payload`` as sorted-key JSON."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_body(
            code, "application/json; charset=utf-8", body, headers=headers
        )

    def send_body(
        self,
        code: int,
        content_type: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Reply with raw ``body`` bytes plus any extra ``headers``."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def version_string(self) -> str:
        """The ``Server`` header: the owning server's version tag."""
        return f"{self.server.endpoint.server_version} {self.sys_version}"

    def log_message(self, format: str, *args: Any) -> None:
        """Route http.server chatter into the structured logger."""
        get_logger(self.server.endpoint.log_name).debug(
            "http request",
            request=format % args,
            client=self.client_address[0],
        )


class EndpointServer:
    """A ``ThreadingHTTPServer`` on a daemon thread, serving ``routes``.

    Subclasses set the class attributes and pass their route table to
    ``__init__``.  ``port=0`` binds an ephemeral port; read :attr:`port`
    / :attr:`url` after construction.  :meth:`close` is idempotent.
    """

    #: Error raised for an invalid port or a failed bind.
    error: type[ReproError] = ReproError
    #: What this server is, in error messages ("invalid <role> port").
    role = "endpoint"
    #: Product token of the ``Server`` response header.
    server_version = "repro/1"
    #: Name of the serving thread.
    thread_name = "repro-http"
    #: Logger for startup and per-request chatter.
    log_name = "repro.obs.endpoint"

    def __init__(
        self,
        routes: dict[tuple[str, str], Route],
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        if port < 0 or port > 65535:
            raise self.error(f"invalid {self.role} port {port}")
        self.routes = routes
        try:
            self._server = ThreadingHTTPServer((host, port), EndpointHandler)
        except OSError as exc:
            raise self.error(
                f"cannot bind {self.role} port {host}:{port} ({exc})"
            ) from exc
        self._server.daemon_threads = True
        self._server.endpoint = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._closed = False
        #: Bound address (the actual port when constructed with ``port=0``).
        self.host, self.port = self._server.server_address[:2]
        #: Base URL of the server.
        self.url = f"http://{self.host}:{self.port}"

    def start(self) -> "EndpointServer":
        """Serve requests in a daemon thread (no-op when already running)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=self.thread_name,
                daemon=True,
            )
            self._thread.start()
            get_logger(self.log_name).info("serving", url=self.url)
        return self

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "EndpointServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

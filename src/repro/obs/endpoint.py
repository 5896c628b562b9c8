"""The one embedded HTTP server and route set behind every ``repro`` endpoint.

:class:`~repro.obs.monitor.SweepMonitor` (``repro sweep --monitor``)
and :class:`~repro.serve.app.PlanServer` (``repro serve``) are both an
:class:`EndpointServer` serving the same routes from their process's
:class:`~repro.obs.live.LiveStatus`: ``GET /status``, ``/metrics``,
``/logs?n=N`` and ``/debug/bundle``.  A subclass sets :attr:`live` (and
:attr:`recorder`) and passes only its own extra routes; this module owns
port validation, bind, the daemon serving thread, idempotent ``close()``
and context-manager use.  ``http.server`` loads only when the first
server is constructed, so processes that never serve do not pay for it.

Routing uses the path with its query string split off, for every
method, so ``GET /metrics?x=1`` reaches ``/metrics``.  An unknown GET
path answers 404 with the server's endpoint list; a method the server
routes nothing for answers 501 like a bare ``http.server`` handler.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import TYPE_CHECKING
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.obs.live import LiveStatus, log_tail
from repro.obs.logging import RingBufferSink, get_logger
from repro.obs.openmetrics import render_openmetrics

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.flight import FlightRecorder
    from repro.obs.handler import EndpointHandler

#: One endpoint: answers a request through the handler it is given.
Route = Callable[["EndpointHandler"], None]

#: Content type served by ``/metrics`` (OpenMetrics text exposition).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Default record count for ``/logs`` when ``n`` is not given.
DEFAULT_LOG_TAIL = 100


class EndpointServer:
    """A ``ThreadingHTTPServer`` on a daemon thread, serving the shared
    routes plus ``routes``.

    ``port=0`` binds an ephemeral port; read :attr:`port` / :attr:`url`
    after construction.  :meth:`close` is idempotent.
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
    #: The live status behind ``/status`` and ``/metrics``.
    live: LiveStatus
    #: The flight recorder behind ``/debug/bundle`` (``None``: 404).
    recorder: FlightRecorder | None = None
    #: The ring buffer ``/logs`` serves (``None``: the global one).
    _ring: RingBufferSink | None = None

    def __init__(
        self,
        routes: dict[tuple[str, str], Route],
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        if port < 0 or port > 65535:
            raise self.error(f"invalid {self.role} port {port}")
        self.routes = {
            ("GET", "/status"): lambda req: req.send_json(self.live.snapshot()),
            ("GET", "/metrics"): self._get_metrics,
            ("GET", "/logs"): self._get_logs,
            ("GET", "/debug/bundle"): self._get_bundle,
            **routes,
        }
        # Deferred: http.server (with http.client, ssl and email) loads
        # only in processes that serve.
        from http.server import ThreadingHTTPServer

        from repro.obs.handler import EndpointHandler

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

    def endpoints(self) -> list[str]:
        """The served routes (``POST`` ones prefixed), in table order."""
        return [
            path if method == "GET" else f"{method} {path}"
            for method, path in self.routes
        ]

    def _get_metrics(self, request: EndpointHandler) -> None:
        text = render_openmetrics(self.live.metrics_snapshot())
        request.send_body(200, OPENMETRICS_CONTENT_TYPE, text.encode("utf-8"))

    def _get_logs(self, request: EndpointHandler) -> None:
        query = parse_qs(request.query)
        try:
            n = int(query.get("n", [str(DEFAULT_LOG_TAIL)])[0])
        except ValueError:
            request.send_json({"error": "query parameter n must be an integer"}, 400)
            return
        request.send_json(log_tail(n, self._ring))

    def _get_bundle(self, request: EndpointHandler) -> None:
        if self.recorder is None:
            message = f"{self.role} is running without a flight recorder"
            request.send_json({"error": "no-recorder", "message": message}, 404)
        else:
            request.send_json(self.recorder.capture("on-demand"))

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

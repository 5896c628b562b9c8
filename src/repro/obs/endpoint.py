"""The one embedded HTTP server behind every ``repro`` endpoint set.

:class:`~repro.obs.monitor.SweepMonitor` (``repro sweep --monitor``)
and :class:`~repro.serve.app.PlanServer` (``repro serve``) are both an
:class:`EndpointServer`.  Each supplies only its route table -- a map
from ``(method, path)`` to a callable that answers through the
:class:`~repro.obs.handler.EndpointHandler` it is given -- and this
module owns the rest: port validation, bind, the daemon serving thread,
idempotent ``close()`` and context-manager use.  The handler does
JSON/byte replies and routes ``http.server`` chatter into the
structured logger; it and ``http.server`` load only when the first
server is constructed, so processes that never serve (sweeps) do not
pay for them.

Routing uses the path with its query string split off, for every
method, so ``GET /metrics?x=1`` reaches ``/metrics``.  An unknown GET
path answers 404 with the server's endpoint list; a method the server
routes nothing for answers 501 like a bare ``http.server`` handler.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.handler import EndpointHandler

#: One endpoint: answers a request through the handler it is given.
Route = Callable[["EndpointHandler"], None]


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

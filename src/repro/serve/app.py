"""HTTP transport of the layout-planning service.

:class:`PlanServer` wraps one :class:`~repro.serve.service.PlanService`
in the :class:`~repro.obs.endpoint.EndpointServer` the sweep monitor
runs on too, which serves the shared ``/status``
(:data:`~repro.serve.schemas.SERVE_STATUS_SCHEMA`), ``/metrics``,
``/logs`` and ``/debug/bundle`` routes from the service's live status
and flight recorder.  This module adds the service's own routes:

* ``POST /plan``  -- one plan request; 200 (envelope), 400 (bad
  request), 429 + ``Retry-After`` (shed), 503 (degraded / shutdown),
  504 (deadline).
* ``GET /healthz`` -- liveness: 200 whenever the process serves HTTP.
* ``GET /readyz``  -- readiness: 200 while admitting with a closed
  breaker, 503 while draining or degraded.

``POST /plan`` honours an incoming W3C ``traceparent`` header and
returns one on every response, so callers can stitch the service's
span tree into their own traces.

:func:`serve_forever` is the CLI body: it installs SIGTERM/SIGINT
handlers that trigger graceful shutdown -- stop admission, drain
in-flight requests within the drain deadline, then tear down in the
established compose order (server and service first; the CLI's
profiler and log sinks follow in ``main()``).
"""

from __future__ import annotations

import json
import signal
import threading
from typing import TYPE_CHECKING, Any

from repro.obs.endpoint import EndpointServer
from repro.serve.schemas import ServeError, error_envelope
from repro.serve.service import PlanService

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.handler import EndpointHandler

#: Maximum accepted request body, bytes (a plan request is tiny).
MAX_BODY_BYTES = 1 << 20


class PlanServer(EndpointServer):
    """The HTTP server around one (started) :class:`PlanService`.

    Usage::

        with PlanService(...) as service, PlanServer(service, port=0) as srv:
            print(srv.url)
            ...

    ``port=0`` binds an ephemeral port; read :attr:`port` / :attr:`url`
    after construction.  :meth:`close` is idempotent and only stops the
    HTTP listener -- the service's own drain/teardown belongs to its
    owner.
    """

    error = ServeError
    role = "serve"
    server_version = "repro-serve/1"
    thread_name = "repro-serve-http"
    log_name = "repro.serve.http"

    def __init__(
        self,
        service: PlanService,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.service = service
        self.live = service.live
        self.recorder = service.recorder
        super().__init__(
            {
                ("GET", "/healthz"): lambda request: request.send_json(
                    {"ok": True}
                ),
                ("GET", "/readyz"): self._get_readyz,
                ("POST", "/plan"): self._post_plan,
            },
            port=port,
            host=host,
        )

    def _get_readyz(self, request: EndpointHandler) -> None:
        ready = self.service.ready()
        request.send_json({"ready": ready}, code=200 if ready else 503)

    def _post_plan(self, request: EndpointHandler) -> None:
        try:
            length = int(request.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            request.send_json(
                error_envelope(
                    "bad-request", "missing or oversized request body"
                ),
                code=400,
            )
            return
        try:
            data = json.loads(request.rfile.read(length) or b"{}")
        except (OSError, json.JSONDecodeError) as exc:
            request.send_json(
                error_envelope("bad-request", f"invalid JSON body ({exc})"),
                code=400,
            )
            return
        try:
            code, payload, headers = self.service.handle(
                data, traceparent=request.headers.get("traceparent")
            )
        except ServeError as exc:
            request.send_json(
                error_envelope("unavailable", str(exc)), code=503
            )
            return
        request.send_json(payload, code=code, headers=headers)


def serve_forever(
    service: PlanService,
    port: int,
    host: str = "127.0.0.1",
    stop_event: threading.Event | None = None,
    install_signals: bool = True,
    announce: Any = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then shut down gracefully.

    Graceful order: stop admission -> drain in-flight requests within
    the service's drain deadline -> close the HTTP listener -> close
    the service (cancelling anything the drain left behind).  Returns 0
    on a clean drain, 1 when the drain deadline expired.

    ``stop_event`` and ``install_signals`` exist for tests: pass an
    event and ``install_signals=False`` to drive shutdown without
    signals (handlers may only be installed on the main thread).
    """
    stop = stop_event if stop_event is not None else threading.Event()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    service.start()
    server = PlanServer(service, port=port, host=host).start()
    if announce is not None:
        # Deliberate rendering path: the CLI's startup banner.
        print(  # repro: ignore[LOG001]
            f"serving at {server.url} ({' '.join(server.endpoints())})",
            file=announce,
        )
    try:
        # Polling keeps the wait interruptible by signal handlers on
        # every platform (a bare Event.wait() may block them).
        while not stop.is_set():
            stop.wait(0.2)
        # Forensics first: snapshot the live state before the drain
        # empties the in-flight table.
        service.dump_flight("sigterm")
        drained = service.drain()
    finally:
        server.close()
        service.close()
    return 0 if drained else 1

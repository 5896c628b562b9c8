"""The request handler of :class:`~repro.obs.endpoint.EndpointServer`.

Kept apart from the server so that importing :mod:`repro.obs` (and so
every sweep process) does not load ``http.server`` and what it pulls
in -- ``http.client``, ``ssl`` and ``email``; the server imports this
module when the first one is constructed.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler
from typing import TYPE_CHECKING, Any
from urllib.parse import urlsplit

from repro.obs.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.obs.endpoint import EndpointServer


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
                body["endpoints"] = endpoint.endpoints()
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

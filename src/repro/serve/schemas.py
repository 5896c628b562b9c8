"""Request/response schemas of the layout-planning service.

One POST body -> one :class:`PlanRequest` -> one response envelope.  The
request names a matrix size plus the axes to compare (layouts, block
heights, config overrides); the service expands it to a single-size
:class:`~repro.sweep.grid.SweepGrid` -- the *same* grid ``repro sweep``
would build -- so the embedded result document is byte-identical to the
offline sweep for the same resolved configuration (enforced by test).

Everything that determines a point's answer flows through the identical
``{point, config, max_requests}`` payload the sweep runner hashes for
its :class:`~repro.sweep.cache.ResultCache`, which is what lets the
service coalesce duplicate in-flight requests and interoperate with
caches written by the offline path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

from repro.core.config import SystemConfig
from repro.errors import ConfigError, ReproError
from repro.serialization import (
    stable_digest,
    system_to_dict,
    system_with_overrides,
)
from repro.sweep.cache import ResultCache
from repro.sweep.grid import ConfigVariant, SweepGrid
from repro.sweep.results import SweepResult
from repro.sweep.runner import DEFAULT_SWEEP_REQUESTS, point_payload, validate_grid

#: Schema tag of every plan response envelope.  v2 added ``trace_id``
#: (PR 10); the v1 contract below stays declared for old captures.
RESPONSE_SCHEMA = "repro-serve-response/v2"

#: Exact key set of a ``repro-serve-response/v2`` envelope.  SCHEMA001
#: holds every producer of the tag to this declaration, project-wide;
#: adding a key here without versioning the tag is a wire break.
RESPONSE_KEYS = frozenset(
    {
        "schema",
        "request_id",
        "trace_id",
        "degraded",
        "cached",
        "computed",
        "coalesced",
        "best",
        "document",
    }
)

#: The retired v1 envelope contract, kept declared so SCHEMA001 still
#: recognizes recorded v1 payloads (no shipped producer remains).
RESPONSE_V1_SCHEMA = "repro-serve-response/v1"
RESPONSE_V1_KEYS = frozenset(
    {
        "schema",
        "request_id",
        "degraded",
        "cached",
        "computed",
        "coalesced",
        "best",
        "document",
    }
)

#: Schema tag of the service ``/status`` document (v2 added the
#: ``latency`` summary section).
SERVE_STATUS_SCHEMA = "repro-serve-status/v2"

#: Schema tag of error envelopes (shed, degraded, deadline, failure).
ERROR_SCHEMA = "repro-serve-error/v1"

#: Request keys :func:`parse_plan_request` accepts.
_REQUEST_KEYS = {
    "n",
    "layouts",
    "heights",
    "whole_blocks",
    "label",
    "overrides",
    "max_requests",
    "deadline_s",
}


class ServeError(ReproError):
    """Service configuration or lifecycle failure."""


@dataclass(frozen=True)
class PlanRequest:
    """One validated plan request (a single-size sweep to answer).

    ``overrides`` uses the serialized config schema of
    :func:`repro.serialization.system_to_dict` exactly like a sweep
    spec's config variant; ``deadline_s`` is the caller's wall-clock
    budget for the whole request (``None`` = the service default).
    """

    n: int
    layouts: tuple[str, ...] = ("row-major", "ddl")
    heights: tuple[int | None, ...] = (None,)
    whole_blocks: bool = True
    label: str = "default"
    overrides: Mapping[str, Any] = field(default_factory=dict)
    max_requests: int = DEFAULT_SWEEP_REQUESTS
    deadline_s: float | None = None

    def grid(self) -> SweepGrid:
        """The equivalent sweep grid (identical to the offline path)."""
        return SweepGrid(
            sizes=(self.n,),
            layouts=self.layouts,
            heights=self.heights,
            configs=(
                ConfigVariant(label=self.label, overrides=dict(self.overrides)),
            ),
            whole_blocks=self.whole_blocks,
        )

    def resolved_config(self, base: SystemConfig) -> dict[str, Any]:
        """The fully-resolved config dict workers simulate under."""
        return system_to_dict(
            system_with_overrides(base, dict(self.overrides))
        )

    def point_payloads(
        self, base: SystemConfig
    ) -> list[tuple[str, dict[str, Any]]]:
        """``(cache key, task payload)`` per grid point, in grid order.

        The payload is byte-for-byte what the sweep runner hashes
        (``{point, config, max_requests}``), so keys -- and therefore
        coalescing and cache entries -- are shared across both paths.
        """
        grid = self.grid()
        validate_grid(grid, base)
        config_dict = self.resolved_config(base)
        payloads = []
        for point in grid.points():
            payload = point_payload(point, config_dict, self.max_requests)
            payloads.append((ResultCache.key_for(payload), payload))
        return payloads

    def digest(self) -> str:
        """Content digest of the request (request-id material)."""
        return stable_digest(
            {
                "n": self.n,
                "layouts": list(self.layouts),
                "heights": list(self.heights),
                "whole_blocks": self.whole_blocks,
                "label": self.label,
                "overrides": dict(self.overrides),
                "max_requests": self.max_requests,
            }
        )


def parse_plan_request(data: Any) -> PlanRequest:
    """Validate a decoded request body into a :class:`PlanRequest`.

    Raises :class:`~repro.errors.ConfigError` (-> HTTP 400) on any
    malformed field; unknown keys are rejected so typos fail loudly.
    """
    if not isinstance(data, Mapping):
        raise ConfigError("plan request: body must be a JSON object")
    unknown = set(data) - _REQUEST_KEYS
    if unknown:
        raise ConfigError(f"plan request: unknown keys {sorted(unknown)}")
    if "n" not in data:
        raise ConfigError("plan request: 'n' is required")
    try:
        n = int(data["n"])
    except (TypeError, ValueError):
        raise ConfigError(
            f"plan request: 'n' must be an integer, got {data['n']!r}"
        ) from None
    if n <= 0:
        raise ConfigError(f"plan request: 'n' must be positive, got {n}")
    kwargs: dict[str, Any] = {"n": n}
    if "layouts" in data:
        layouts = data["layouts"]
        if not isinstance(layouts, (list, tuple)) or not layouts:
            raise ConfigError(
                "plan request: 'layouts' must be a non-empty list"
            )
        kwargs["layouts"] = tuple(str(layout) for layout in layouts)
    if "heights" in data:
        heights = data["heights"]
        if not isinstance(heights, (list, tuple)) or not heights:
            raise ConfigError(
                "plan request: 'heights' must be a non-empty list"
            )
        kwargs["heights"] = tuple(
            None if h in (None, 0) else int(h) for h in heights
        )
    if "whole_blocks" in data:
        kwargs["whole_blocks"] = bool(data["whole_blocks"])
    if "label" in data:
        kwargs["label"] = str(data["label"])
    if "overrides" in data:
        if not isinstance(data["overrides"], Mapping):
            raise ConfigError("plan request: 'overrides' must be an object")
        kwargs["overrides"] = dict(data["overrides"])
    if "max_requests" in data:
        try:
            max_requests = int(data["max_requests"])
        except (TypeError, ValueError):
            raise ConfigError(
                "plan request: 'max_requests' must be an integer"
            ) from None
        if max_requests <= 0:
            raise ConfigError(
                f"plan request: 'max_requests' must be positive, "
                f"got {max_requests}"
            )
        kwargs["max_requests"] = max_requests
    if "deadline_s" in data and data["deadline_s"] is not None:
        try:
            deadline_s = float(data["deadline_s"])
        except (TypeError, ValueError):
            raise ConfigError(
                "plan request: 'deadline_s' must be a number"
            ) from None
        if deadline_s <= 0:
            raise ConfigError(
                f"plan request: 'deadline_s' must be positive, "
                f"got {deadline_s}"
            )
        kwargs["deadline_s"] = deadline_s
    return PlanRequest(**kwargs)


def best_point(results: list[dict[str, Any]]) -> dict[str, Any]:
    """The optimal point of a request: highest column-phase throughput.

    Ties break to the earliest grid position, so the answer is as
    deterministic as the document it came from.
    """
    if not results:
        raise ServeError("no results to select a best layout from")
    return max(results, key=lambda entry: entry["throughput_gbps"])


def response_envelope(
    request: PlanRequest,
    request_id: str,
    results: list[dict[str, Any]],
    cached: int,
    computed: int,
    coalesced: int,
    degraded: bool = False,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """The success envelope around one request's deterministic document.

    ``document`` is exactly the :meth:`SweepResult.to_json_dict` payload
    ``repro sweep`` would emit for the same grid -- the envelope adds
    service metadata *around* it (``trace_id`` joins the envelope to
    logs, exemplars and flight bundles), never inside it.
    """
    document = SweepResult(
        grid=request.grid(),
        max_requests=request.max_requests,
        results=results,
    ).to_json_dict()
    return {
        "schema": RESPONSE_SCHEMA,
        "request_id": request_id,
        "trace_id": trace_id,
        "degraded": degraded,
        "cached": cached,
        "computed": computed,
        "coalesced": coalesced,
        "best": best_point(results),
        "document": document,
    }


def error_envelope(
    error: str,
    message: str,
    request_id: str | None = None,
    reason: str | None = None,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """The envelope of every non-2xx service answer.

    ``reason`` reuses the canonical
    :class:`~repro.sweep.resilience.QuarantineReason` vocabulary when a
    worker outcome caused the error; ``trace_id`` (when the request got
    far enough to have one) joins the error to its trace and any flight
    bundle it triggered.
    """
    payload: dict[str, Any] = {
        "schema": ERROR_SCHEMA,
        "error": error,
        "message": message,
    }
    if request_id is not None:
        payload["request_id"] = request_id
    if reason is not None:
        payload["reason"] = reason
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload

"""Trace containers: a single request and a struct-of-arrays trace."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.units import ELEMENT_BYTES


@dataclass(frozen=True)
class Request:
    """One element-granularity memory access.

    Attributes:
        address: byte address, element aligned.
        is_write: True for a store, False for a load (timing-identical in the
            model; kept for statistics and for checking phase shapes).
    """

    address: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise TraceError(f"negative address {self.address}")
        if self.address % ELEMENT_BYTES:
            raise TraceError(
                f"address {self.address:#x} is not {ELEMENT_BYTES}-byte aligned"
            )


class TraceArray:
    """A sequence of element accesses stored as numpy arrays.

    The struct-of-arrays representation keeps multi-million request traces
    cheap to build, slice and feed to the vectorized decoder.
    """

    def __init__(
        self,
        addresses: np.ndarray,
        is_write: np.ndarray | bool = False,
        arrival_ns: np.ndarray | None = None,
    ):
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if addresses.ndim != 1:
            raise TraceError(f"trace addresses must be 1-D, got shape {addresses.shape}")
        if addresses.size:
            if int(addresses.min()) < 0:
                raise TraceError("trace contains negative addresses")
            if np.any(addresses % ELEMENT_BYTES):
                raise TraceError("trace contains unaligned addresses")
        if isinstance(is_write, (bool, np.bool_)):
            writes = np.full(addresses.shape, bool(is_write), dtype=bool)
        else:
            writes = np.ascontiguousarray(is_write, dtype=bool)
            if writes.shape != addresses.shape:
                raise TraceError("is_write array shape must match addresses")
        if arrival_ns is not None:
            arrival_ns = np.ascontiguousarray(arrival_ns, dtype=np.float64)
            if arrival_ns.shape != addresses.shape:
                raise TraceError("arrival_ns array shape must match addresses")
            if arrival_ns.size:
                if float(arrival_ns.min()) < 0:
                    raise TraceError("arrival times must be non-negative")
                if np.any(np.diff(arrival_ns) < 0):
                    raise TraceError("arrival times must be non-decreasing")
        self.addresses = addresses
        self.is_write = writes
        #: Optional open-loop issue times; None means closed-loop (the
        #: consumer issues as fast as the discipline allows).
        self.arrival_ns = arrival_ns

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "TraceArray":
        """Build a trace from an iterable of :class:`Request`."""
        items = list(requests)
        addresses = np.fromiter(
            (r.address for r in items), dtype=np.int64, count=len(items)
        )
        writes = np.fromiter(
            (r.is_write for r in items), dtype=bool, count=len(items)
        )
        return cls(addresses, writes)

    @classmethod
    def concatenate(cls, traces: Iterable["TraceArray"]) -> "TraceArray":
        """Concatenate traces in order (arrival times are dropped -- they
        would not stay monotone across arbitrary traces)."""
        traces = list(traces)
        if not traces:
            return cls(np.empty(0, dtype=np.int64))
        return cls(
            np.concatenate([t.addresses for t in traces]),
            np.concatenate([t.is_write for t in traces]),
        )

    def with_arrivals(self, arrival_ns: np.ndarray) -> "TraceArray":
        """A copy of this trace with open-loop issue times attached."""
        return TraceArray(self.addresses, self.is_write, arrival_ns)

    # ----------------------------------------------------------------- dunder
    def __len__(self) -> int:
        return int(self.addresses.size)

    def __iter__(self) -> Iterator[Request]:
        for address, write in zip(self.addresses.tolist(), self.is_write.tolist(), strict=True):
            yield Request(int(address), bool(write))

    def __getitem__(self, index: slice) -> "TraceArray":
        if not isinstance(index, slice):
            raise TypeError("TraceArray only supports slice indexing")
        arrivals = None if self.arrival_ns is None else self.arrival_ns[index]
        return TraceArray(self.addresses[index], self.is_write[index], arrivals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceArray):
            return NotImplemented
        return bool(
            np.array_equal(self.addresses, other.addresses)
            and np.array_equal(self.is_write, other.is_write)
        )

    def __repr__(self) -> str:
        return f"TraceArray(n={len(self)}, writes={int(self.is_write.sum())})"

    # ------------------------------------------------------------------ props
    @property
    def total_bytes(self) -> int:
        """Payload bytes moved by the whole trace."""
        return len(self) * ELEMENT_BYTES

    def head(self, n: int) -> "TraceArray":
        """The first ``n`` requests (how a caller prices a prefix)."""
        if n < 0:
            raise TraceError(f"head length must be non-negative, got {n}")
        return self[:n]

"""Per-request precompute shared by the exact and vector timing engines.

Everything a fault plan does to a request that does not depend on the
serial device state is decided here, once, for both engines: the vault
remap of a :class:`~repro.faults.injectors.VaultFailure` and the service
tail (``t_in_row`` plus latency jitter plus ECC correction) of
:class:`~repro.faults.injectors.LatencyJitter` and
:class:`~repro.faults.injectors.BitErrorModel`.  What remains for the
engines is the state-dependent part: refresh and storm windows, thermal
throttle windows and event emission.

The error-class codes live here rather than in :mod:`repro.faults` so
the engines can use them without importing the fault package (which
depends on :mod:`repro.memory3d`); :mod:`repro.faults.plan` re-exports
them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.memory3d.timebase import ns_array_to_ps, ns_to_ps, ps_to_ns

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.plan import FaultState
    from repro.memory3d.memory import Memory3D

#: Error-class codes in :attr:`~repro.faults.plan.FaultState.error_class`.
ERR_NONE = 0
ERR_CORRECTED = 1
ERR_UNCORRECTABLE = 2

#: Integer stand-in for "no activation yet" in the picosecond engines.
NO_ACT = -(1 << 62)


def decode(
    memory: Memory3D, addresses: np.ndarray, faults: FaultState | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode to int64 ``(vault, bank, row, global bank)`` arrays.

    Applies the fault plan's vault remap and books
    ``faults.remapped_requests``.
    """
    vaults, banks, rows, _ = memory.mapping.decode_array(addresses)
    if faults is not None and faults.remap is not None:
        remapped = np.asarray(faults.remap, dtype=vaults.dtype)[vaults]
        faults.remapped_requests = int((remapped != vaults).sum())
        vaults = remapped
    gbank = vaults * memory.config.banks_per_vault
    gbank += banks
    return vaults, banks, rows, gbank


def service_tail(
    n: int, t_in_row: int, faults: FaultState | None
) -> tuple[np.ndarray | None, int]:
    """Per-request service tail in ps (``None`` = constant ``t_in_row``).

    The tail is ``t_in_row + jitter + correction``: what a request's
    burst adds after its beat starts, before any thermal derating.
    Returns ``(tail, min_tail)`` and books ``faults.jitter_ns`` and the
    corrected / uncorrectable error counts.
    """
    if faults is None or (faults.jitter is None and faults.error_class is None):
        return None, t_in_row
    tail = np.full(n, t_in_row, dtype=np.int64)
    if faults.jitter is not None:
        jitter = ns_array_to_ps(np.asarray(faults.jitter, dtype=np.float64))
        tail += jitter
        faults.jitter_ns = ps_to_ns(int(jitter.sum()))
    if faults.error_class is not None:
        err = np.asarray(faults.error_class, dtype=np.int64)
        corrected = err == ERR_CORRECTED
        tail += np.where(corrected, ns_to_ps(faults.correction_ns), 0)
        faults.corrected_errors = int(corrected.sum())
        faults.uncorrectable_errors = int((err == ERR_UNCORRECTABLE).sum())
    return tail, int(tail.min())

"""Per-bank row-buffer state.

A bank holds one open row at a time.  An access to the open row is a *row
hit* and only pays the streaming beat; an access to any other row requires a
row activation, which is gated by the bank's activate-to-activate minimum
(``t_diff_row``) and by vault-level activation constraints tracked in
:class:`~repro.memory3d.vault.VaultTimingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory3d.config import TimingParameters

#: Sentinel meaning "no row open / never activated".
NO_ROW = -1


@dataclass
class BankState:
    """Open-row tracking plus the bank-local activate constraint."""

    open_row: int = NO_ROW
    next_activate_ns: float = 0.0
    activations: int = 0
    hits: int = 0

    def is_hit(self, row: int) -> bool:
        """True if ``row`` is currently open in this bank."""
        return self.open_row == row

    def earliest_activate(self, ready_ns: float) -> float:
        """Earliest time a new activation may start, given request readiness."""
        return max(ready_ns, self.next_activate_ns)

    def activate(self, row: int, at_ns: float, timing: TimingParameters) -> None:
        """Open ``row`` at time ``at_ns`` and arm the t_diff_row constraint."""
        self.open_row = row
        self.next_activate_ns = at_ns + timing.t_diff_row
        self.activations += 1

    def record_hit(self) -> None:
        """Count an open-row access."""
        self.hits += 1

    def reset(self) -> None:
        """Forget the open row and timing state (e.g. between phases)."""
        self.open_row = NO_ROW
        self.next_activate_ns = 0.0

"""Physical address decoding for the 3D memory.

The device is addressed linearly in bytes.  Addresses are split, low bits
first, into::

    [ row | bank | vault | offset-within-row ]

i.e. consecutive row-sized chunks interleave across vaults first (so a
sequential stream engages all vaults), then across the banks of each vault,
then move to the next row.  This "chunk-interleaved" map is the natural
high-bandwidth map for an HMC-like part and is the one under which the
paper's baseline numbers reproduce (see DESIGN.md section 3).

A ``DecodedAddress`` identifies the (vault, bank, row) triple that a request
activates plus the column (byte offset) within the row.  The ``bank`` index
runs over all banks of a vault (layers x banks-per-layer); ``layer_of_bank``
recovers the layer, which matters because activations to banks on different
layers of the same vault pipeline at ``t_in_vault`` rather than
``t_diff_bank``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError
from repro.memory3d.config import Memory3DConfig
from repro.units import ilog2


@dataclass(frozen=True)
class DecodedAddress:
    """Coordinates of one byte address inside the stack."""

    vault: int
    bank: int
    row: int
    column: int

    def same_row(self, other: "DecodedAddress") -> bool:
        """True if both addresses fall in the same open row of the same bank."""
        return (
            self.vault == other.vault
            and self.bank == other.bank
            and self.row == other.row
        )


class AddressMapping:
    """Decode byte addresses to (vault, bank, row, column) coordinates.

    Decoding is exposed both per-address (:meth:`decode`) and vectorized over
    numpy arrays (:meth:`decode_array`), which the fast simulator engine uses.
    """

    def __init__(self, config: Memory3DConfig) -> None:
        self.config = config
        self._offset_bits = ilog2(config.row_bytes)
        self._vault_bits = ilog2(config.vaults)
        self._bank_bits = ilog2(config.banks_per_vault)
        self._vault_mask = config.vaults - 1
        self._bank_mask = config.banks_per_vault - 1
        self._offset_mask = config.row_bytes - 1

    # ------------------------------------------------------------------ scalar
    def decode(self, address: int) -> DecodedAddress:
        """Decode one byte address.

        Raises:
            AddressError: if the address is negative or beyond capacity.
        """
        if address < 0 or address >= self.config.capacity_bytes:
            raise AddressError(
                f"address {address:#x} outside device capacity "
                f"{self.config.capacity_bytes:#x}"
            )
        column = address & self._offset_mask
        chunk = address >> self._offset_bits
        vault = chunk & self._vault_mask
        bank = (chunk >> self._vault_bits) & self._bank_mask
        row = chunk >> (self._vault_bits + self._bank_bits)
        return DecodedAddress(vault=vault, bank=bank, row=row, column=column)

    def encode(self, vault: int, bank: int, row: int, column: int = 0) -> int:
        """Inverse of :meth:`decode` -- build a byte address from coordinates."""
        cfg = self.config
        if not (0 <= vault < cfg.vaults):
            raise AddressError(f"vault {vault} out of range 0..{cfg.vaults - 1}")
        if not (0 <= bank < cfg.banks_per_vault):
            raise AddressError(f"bank {bank} out of range 0..{cfg.banks_per_vault - 1}")
        if not (0 <= row < cfg.rows_per_bank):
            raise AddressError(f"row {row} out of range 0..{cfg.rows_per_bank - 1}")
        if not (0 <= column < cfg.row_bytes):
            raise AddressError(f"column {column} out of range 0..{cfg.row_bytes - 1}")
        chunk = (row << (self._vault_bits + self._bank_bits)) | (bank << self._vault_bits) | vault
        return (chunk << self._offset_bits) | column

    def layer_of_bank(self, bank: int) -> int:
        """Layer on which a vault-local bank index resides.

        Banks are numbered layer-interleaved: bank ``b`` sits on layer
        ``b % layers``, so neighbouring bank indices live on the same layer
        only every ``layers`` steps.  This matches the timing models in
        :mod:`repro.memory3d.vault`.
        """
        return bank % self.config.layers

    # ------------------------------------------------------------- vectorized
    def decode_array(
        self, addresses: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized decode: returns (vault, bank, row, column) arrays."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.size and (
            addresses.min() < 0 or addresses.max() >= self.config.capacity_bytes
        ):
            raise AddressError("address array contains out-of-capacity addresses")
        column = addresses & self._offset_mask
        chunk = addresses >> self._offset_bits
        vault = chunk & self._vault_mask
        row = chunk >> (self._vault_bits + self._bank_bits)
        # The bank field is what is left of the chunk: reuse its buffer.
        chunk >>= self._vault_bits
        chunk &= self._bank_mask
        return vault, chunk, row, column

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"AddressMapping(offset_bits={self._offset_bits}, "
            f"vault_bits={self._vault_bits}, bank_bits={self._bank_bits})"
        )

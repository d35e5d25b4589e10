"""SEC-DED error-correcting codes over cache blocks (§3.1).

The paper's third layout argument: spreading an error-corrected block
over many subarrays makes it unlikely that one particle strike corrupts
more bits than the code protects.  This module provides the actual
code — an extended Hamming (SEC-DED) encoder/decoder over arbitrary
word widths — plus the interleaving math that turns a physical
multi-bit upset into per-word single-bit errors when a block is spread
across enough subarrays.

Used by :mod:`repro.floorplan.spares` and the layout ablation
experiments; fully self-contained and exhaustively testable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import ConfigurationError


def _parity_positions(data_bits: int) -> List[int]:
    """1-based positions of Hamming parity bits for ``data_bits``."""
    positions = []
    p = 1
    while p <= data_bits + len(positions):
        positions.append(p)
        p <<= 1
    return positions


def parity_bits_needed(data_bits: int) -> int:
    """Hamming parity count r such that 2^r >= data + r + 1."""
    if data_bits <= 0:
        raise ConfigurationError("data width must be positive")
    r = 0
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


class DecodeStatus(enum.Enum):
    """Outcome of a SEC-DED decode."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED_UNCORRECTABLE = "detected-uncorrectable"
    #: >2 bit errors may alias to a "corrected" word with wrong data;
    #: the decoder cannot see this, but tests can, via the oracle.
    MISCORRECTED = "miscorrected"


@dataclass(frozen=True)
class DecodeResult:
    status: DecodeStatus
    data: int
    corrected_position: int = 0  # 1-based codeword position, 0 = none


class SECDED:
    """Single-error-correct, double-error-detect extended Hamming code."""

    def __init__(self, data_bits: int) -> None:
        if data_bits <= 0:
            raise ConfigurationError("data width must be positive")
        self.data_bits = data_bits
        self.parity_bits = parity_bits_needed(data_bits)
        #: total codeword length including the overall parity bit.
        self.codeword_bits = data_bits + self.parity_bits + 1
        self._parity_positions = set(_parity_positions(data_bits))

    # --- bit layout: positions 1..n, powers of two are parity ---

    def _data_positions(self) -> List[int]:
        positions = []
        p = 1
        while len(positions) < self.data_bits:
            if p not in self._parity_positions:
                positions.append(p)
            p += 1
        return positions

    def encode(self, data: int) -> int:
        """Return the codeword (bit 0 = position 1, MSB = overall parity)."""
        if data < 0 or data >= (1 << self.data_bits):
            raise ConfigurationError(
                f"data {data:#x} out of range for {self.data_bits} bits"
            )
        word = 0
        for i, pos in enumerate(self._data_positions()):
            if (data >> i) & 1:
                word |= 1 << (pos - 1)
        for p in self._parity_positions:
            parity = 0
            pos = 1
            while pos <= self.data_bits + self.parity_bits:
                if pos & p and (word >> (pos - 1)) & 1:
                    parity ^= 1
                pos += 1
            if parity:
                word |= 1 << (p - 1)
        # Extended (overall) parity over everything so far.
        if bin(word).count("1") & 1:
            word |= 1 << (self.codeword_bits - 1)
        return word

    def _syndrome(self, word: int) -> int:
        syndrome = 0
        for pos in range(1, self.data_bits + self.parity_bits + 1):
            if (word >> (pos - 1)) & 1:
                syndrome ^= pos
        return syndrome

    def _extract(self, word: int) -> int:
        data = 0
        for i, pos in enumerate(self._data_positions()):
            if (word >> (pos - 1)) & 1:
                data |= 1 << i
        return data

    def decode(self, word: int) -> DecodeResult:
        """Correct one flipped bit, detect two."""
        if word < 0 or word >= (1 << self.codeword_bits):
            raise ConfigurationError("codeword out of range")
        syndrome = self._syndrome(word)
        overall = bin(word).count("1") & 1  # should be even
        if syndrome == 0 and overall == 0:
            return DecodeResult(DecodeStatus.CLEAN, self._extract(word))
        if overall == 1:
            # Odd total parity: a single-bit error (possibly in the
            # overall parity bit itself) — correctable.
            if syndrome == 0:
                corrected = word ^ (1 << (self.codeword_bits - 1))
                return DecodeResult(
                    DecodeStatus.CORRECTED,
                    self._extract(corrected),
                    corrected_position=self.codeword_bits,
                )
            corrected = word ^ (1 << (syndrome - 1))
            return DecodeResult(
                DecodeStatus.CORRECTED,
                self._extract(corrected),
                corrected_position=syndrome,
            )
        # Even overall parity with a nonzero syndrome: double error.
        return DecodeResult(
            DecodeStatus.DETECTED_UNCORRECTABLE, self._extract(word)
        )


@dataclass(frozen=True)
class InterleavingPlan:
    """How a block's ECC words spread over subarrays (§3.1).

    A block holds ``words`` ECC codewords of ``word_bits`` each,
    spread over ``subarrays`` tiles with ideal bit-interleaving: each
    word's bits land in as many different subarrays as possible, and
    within a subarray adjacent cells cycle through different words.
    """

    words: int
    word_bits: int
    subarrays: int

    def __post_init__(self) -> None:
        if min(self.words, self.word_bits, self.subarrays) <= 0:
            raise ConfigurationError("plan parameters must be positive")

    @property
    def total_bits(self) -> int:
        return self.words * self.word_bits

    @property
    def cells_per_subarray(self) -> int:
        return -(-self.total_bits // self.subarrays)  # ceil

    def bits_per_word_per_subarray(self) -> int:
        """Max bits of any single ECC word stored in one subarray.

        The §3.1 figure of merit: once this is 1, *any* failure
        confined to one subarray — including losing the whole tile —
        flips at most one bit per word and SEC-DED corrects it.
        """
        return -(-self.word_bits // self.subarrays)  # ceil

    def survives_subarray_loss(self) -> bool:
        """True if a whole-subarray failure stays correctable."""
        return self.bits_per_word_per_subarray() <= 1

    def widest_correctable_adjacent_upset(self) -> int:
        """Widest run of adjacent flipped cells in ONE subarray that is
        guaranteed correctable.

        With word-cycling cell assignment a run revisits a word only
        after ``words`` cells — unless the word has a single bit in the
        subarray, in which case the entire subarray's contents are
        correctable.
        """
        if self.survives_subarray_loss():
            return self.cells_per_subarray
        return self.words


def protection_overhead(block_bytes: int, word_bits: int = 64) -> Tuple[int, float]:
    """(total ECC bits, fractional overhead) to protect a block.

    The conventional choice is SEC-DED per 64-bit word: 8 check bits
    per word, 12.5% overhead — the figure large caches of the paper's
    era (Itanium II) actually paid.
    """
    if block_bytes <= 0 or word_bits <= 0:
        raise ConfigurationError("sizes must be positive")
    total_bits = block_bytes * 8
    if total_bits % word_bits:
        raise ConfigurationError("block must be a whole number of ECC words")
    words = total_bits // word_bits
    check_bits_per_word = parity_bits_needed(word_bits) + 1
    total = words * check_bits_per_word
    return total, total / total_bits

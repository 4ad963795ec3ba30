"""Bit-Plane Compression (BPC), after Kim et al., ISCA 2016.

BPC is the codec Buddy Compression builds on.  For one 128 B
memory-entry (32 little-endian ``uint32`` words) it:

1. keeps the first word as the *base* and takes 31 consecutive deltas
   (33-bit signed values);
2. transposes the deltas into 33 *delta bit-planes* (DBP), each a
   31-bit symbol;
3. XORs adjacent planes (DBX transform): ``DBX[b] = DBP[b] ^ DBP[b+1]``
   with the top plane passed through;
4. encodes the base word and each DBX plane with a short prefix-free
   code exploiting the frequent all-zero / all-one / single-one plane
   patterns that homogeneous GPU data produces.

Two paths are provided:

* :meth:`BPCCompressor.encode` / :meth:`BPCCompressor.decode` — a
  bit-exact scalar codec, property-tested for roundtrip fidelity.
* :meth:`BPCCompressor.compressed_sizes` — a size-only path (what
  every snapshot study consumes), property-tested for equality with
  the scalar encoder.  It never builds the planes: for a delta ``d_j``
  masked to 33 bits, bit ``b`` of ``d_j ^ (d_j >> 1)`` is symbol ``j``
  of DBX plane ``b`` (the top plane passes through).  Bitwise
  reductions over the 31 rows give per-block masks, one bit per plane,
  whose popcounts price every plane and zero run.  Blocks go through
  in fixed chunks of ``_CHUNK_BLOCKS`` = 4,096: a chunk's word-major
  int64 copy is 1 MiB and its delta and DBX rows about as much, so
  the working set stays near a core's L2 and the temporaries are a
  few MiB whatever the input size.

Code table for DBX planes (prefix-free):

=====================  ==========================  =====
Plane pattern          Code                        Bits
=====================  ==========================  =====
run of 2–33 zeros      ``001`` + 5-bit (run − 2)   8
single zero plane      ``01``                      2
all ones               ``00000``                   5
DBX ≠ 0 but DBP = 0    ``00001``                   5
two consecutive ones   ``00010`` + 5-bit position  10
single one             ``00011`` + 5-bit position  10
uncompressed           ``1`` + 31 raw bits         32
=====================  ==========================  =====

Base-word code: ``000`` for zero, ``001``/``010``/``011`` + 4/8/16-bit
sign-extended payloads, ``1`` + 32 raw bits otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedBlock, CompressionAlgorithm, as_blocks
from repro.compression.bitio import BitReader, BitWriter
from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY

_NUM_DELTAS = WORDS_PER_ENTRY - 1  # 31
_NUM_PLANES = 33  # 33-bit deltas -> 33 bit-planes
_PLANE_MASK = (1 << _NUM_DELTAS) - 1  # 31-bit planes
_DELTA_MASK = (1 << _NUM_PLANES) - 1  # 33-bit two's-complement deltas
_CHUNK_BLOCKS = 1 << 12  # blocks per pass of the vectorised size kernel
_RAW_BITS = MEMORY_ENTRY_BYTES * 8  # 1024

# Base-word payload widths for the sign-extended classes.
_BASE_CLASSES = ((0b001, 4), (0b010, 8), (0b011, 16))


def _signed_fits(value: int, bits: int) -> bool:
    """Whether a signed integer fits in ``bits`` two's-complement bits."""
    bound = 1 << (bits - 1)
    return -bound <= value < bound


def _dbp_planes(words: np.ndarray) -> list[int]:
    """Compute the 33 delta bit-planes of one entry as Python ints."""
    values = [int(w) for w in words]
    deltas = [
        (values[i + 1] - values[i]) & _DELTA_MASK for i in range(_NUM_DELTAS)
    ]
    planes = []
    for bit in range(_NUM_PLANES):
        plane = 0
        for j, delta in enumerate(deltas):
            plane |= ((delta >> bit) & 1) << j
        planes.append(plane)
    return planes


def _dbx_planes(dbp: list[int]) -> list[int]:
    """XOR-transform adjacent planes; the top plane passes through."""
    dbx = [dbp[b] ^ dbp[b + 1] for b in range(_NUM_PLANES - 1)]
    dbx.append(dbp[_NUM_PLANES - 1])
    return dbx


def _is_two_consecutive_ones(plane: int) -> bool:
    """True when the plane has exactly two set bits and they are adjacent."""
    if plane == 0:
        return False
    low = plane & -plane
    return plane == (low | (low << 1))


class BPCCompressor(CompressionAlgorithm):
    """Bit-Plane Compression codec for 128 B memory-entries."""

    name = "bpc"

    # ------------------------------------------------------------------
    # Exact scalar codec
    # ------------------------------------------------------------------
    def encode(self, words: np.ndarray) -> CompressedBlock:
        """Encode one entry to a bitstream (falls back to raw storage).

        If the compressed stream would be at least as large as the raw
        1024 bits, the entry is stored raw with a leading ``1`` flag
        (real hardware records the raw/compressed choice in the 4-bit
        size metadata; the in-stream flag keeps this codec
        self-contained for testing).
        """
        words = np.asarray(words, dtype=np.uint32).reshape(WORDS_PER_ENTRY)
        writer = BitWriter()
        writer.write(0, 1)  # compressed-stream flag
        self._encode_base(writer, int(words[0]))
        dbp = _dbp_planes(words)
        dbx = _dbx_planes(dbp)
        self._encode_planes(writer, dbp, dbx)
        if writer.bit_length >= 1 + _RAW_BITS:
            raw = BitWriter()
            raw.write(1, 1)  # raw flag
            for word in words:
                raw.write(int(word), 32)
            writer = raw
        return CompressedBlock(self.name, writer.to_bytes(), writer.bit_length)

    def decode(self, block: CompressedBlock) -> np.ndarray:
        """Decode a stream produced by :meth:`encode` back to 32 words."""
        if block.algorithm != self.name:
            raise ValueError(f"cannot decode {block.algorithm!r} stream with BPC")
        reader = BitReader(block.bits, block.bit_length)
        if reader.read(1):  # raw entry
            return np.array(
                [reader.read(32) for _ in range(WORDS_PER_ENTRY)], dtype=np.uint32
            )
        base = self._decode_base(reader)
        dbx = self._decode_planes(reader)
        dbp = [0] * _NUM_PLANES
        dbp[_NUM_PLANES - 1] = dbx[_NUM_PLANES - 1]
        for bit in range(_NUM_PLANES - 2, -1, -1):
            if dbx[bit] is _DBP_ZERO:
                dbp[bit] = 0
            else:
                dbp[bit] = dbx[bit] ^ dbp[bit + 1]
        deltas = []
        for j in range(_NUM_DELTAS):
            delta = 0
            for bit in range(_NUM_PLANES):
                delta |= ((dbp[bit] >> j) & 1) << bit
            if delta >> (_NUM_PLANES - 1):  # sign-extend 33-bit value
                delta -= 1 << _NUM_PLANES
            deltas.append(delta)
        words = [base]
        for delta in deltas:
            words.append((words[-1] + delta) & 0xFFFF_FFFF)
        return np.array(words, dtype=np.uint32)

    def compressed_size(self, words: np.ndarray) -> int:
        """Compressed size in bytes of one entry (capped at 128)."""
        return min(self.encode(words).size_bytes, MEMORY_ENTRY_BYTES)

    # ------------------------------------------------------------------
    # Vectorised size-only path
    # ------------------------------------------------------------------
    def compressed_sizes(self, blocks: np.ndarray) -> np.ndarray:
        """Sizes in bytes for ``(n, 32)`` uint32 blocks, vectorised.

        Matches the scalar encoder bit for bit (property-tested).  The
        sizes come from bitwise reductions over ``d ^ (d >> 1)``, in
        chunks of ``_CHUNK_BLOCKS`` blocks (see the module docstring).
        """
        blocks = as_blocks(blocks)
        if blocks.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        sizes = self._stream_bits_vectorised(blocks)
        sizes += 7
        sizes //= 8
        return np.minimum(sizes, MEMORY_ENTRY_BYTES, out=sizes)

    # -- scalar helpers -------------------------------------------------
    def _encode_base(self, writer: BitWriter, word: int) -> None:
        signed = word - (1 << 32) if word >> 31 else word
        if signed == 0:
            writer.write(0b000, 3)
            return
        for code, width in _BASE_CLASSES:
            if _signed_fits(signed, width):
                writer.write(code, 3)
                writer.write(signed & ((1 << width) - 1), width)
                return
        writer.write(1, 1)
        writer.write(word, 32)

    def _decode_base(self, reader: BitReader) -> int:
        if reader.read(1):
            return reader.read(32)
        code = reader.read(2)
        if code == 0b00:
            return 0
        width = {0b01: 4, 0b10: 8, 0b11: 16}[code]
        payload = reader.read(width)
        if payload >> (width - 1):  # sign-extend
            payload -= 1 << width
        return payload & 0xFFFF_FFFF

    def _encode_planes(
        self, writer: BitWriter, dbp: list[int], dbx: list[int]
    ) -> None:
        bit = _NUM_PLANES - 1
        while bit >= 0:
            plane = dbx[bit]
            if plane == 0:
                run = 1
                while bit - run >= 0 and dbx[bit - run] == 0:
                    run += 1
                if run >= 2:
                    writer.write(0b001, 3)
                    writer.write(run - 2, 5)
                else:
                    writer.write(0b01, 2)
                bit -= run
                continue
            if plane == _PLANE_MASK:
                writer.write(0b00000, 5)
            elif dbp[bit] == 0:
                writer.write(0b00001, 5)
            elif _is_two_consecutive_ones(plane):
                writer.write(0b00010, 5)
                writer.write((plane & -plane).bit_length() - 1, 5)
            elif plane & (plane - 1) == 0:  # single one
                writer.write(0b00011, 5)
                writer.write(plane.bit_length() - 1, 5)
            else:
                writer.write(1, 1)
                writer.write(plane, _NUM_DELTAS)
            bit -= 1

    def _decode_planes(self, reader: BitReader) -> list[object]:
        """Decode DBX planes top-down; ``_DBP_ZERO`` marks DBP==0 planes."""
        planes: list[object] = [None] * _NUM_PLANES
        bit = _NUM_PLANES - 1
        while bit >= 0:
            if reader.read(1):  # raw plane
                planes[bit] = reader.read(_NUM_DELTAS)
                bit -= 1
                continue
            if reader.read(1):  # '01' single zero plane
                planes[bit] = 0
                bit -= 1
                continue
            if reader.read(1):  # '001' zero run
                run = reader.read(5) + 2
                for _ in range(run):
                    planes[bit] = 0
                    bit -= 1
                continue
            code = reader.read(2)
            if code == 0b00:
                planes[bit] = _PLANE_MASK
            elif code == 0b01:
                planes[bit] = _DBP_ZERO
            elif code == 0b10:
                position = reader.read(5)
                planes[bit] = 0b11 << position
            else:
                position = reader.read(5)
                planes[bit] = 1 << position
            bit -= 1
        return planes

    # -- vectorised helpers ----------------------------------------------
    @staticmethod
    def _stream_bits_vectorised(blocks: np.ndarray) -> np.ndarray:
        """Encoded bit count (incl. 1 flag bit) per block, before capping."""
        bits = np.empty(blocks.shape[0], dtype=np.int64)
        for start in range(0, blocks.shape[0], _CHUNK_BLOCKS):
            # Word-major (32, n) chunk: each row is one contiguous pass, and
            # every mask below holds one bit per plane of each block.
            words = np.ascontiguousarray(
                blocks[start : start + _CHUNK_BLOCKS].T, dtype=np.int64
            )
            deltas = words[1:] - words[:-1]
            deltas &= _DELTA_MASK
            dbx = deltas >> 1
            dbx ^= deltas  # bit b of dbx[j] is symbol j of DBX plane b

            # Saturating per-plane counts of set symbols (>= 1, >= 2, >= 3)
            # and whether any two adjacent symbols are both set.
            ge1 = dbx[0].copy()
            ge2, ge3, adjacent, term = (np.zeros_like(ge1) for _ in range(4))
            for below, row in zip(dbx[:-1], dbx[1:]):
                ge3 |= np.bitwise_and(ge2, row, out=term)
                ge2 |= np.bitwise_and(ge1, row, out=term)
                ge1 |= row
                adjacent |= np.bitwise_and(below, row, out=term)
            zero = ~ge1 & _DELTA_MASK
            five = np.bitwise_and.reduce(dbx, axis=0)  # all-ones planes
            five |= ge1 & ~np.bitwise_or.reduce(deltas, axis=0)  # DBP == 0
            ten = (ge1 & ~ge2) | (ge2 & ~ge3 & adjacent)
            ten &= ~five
            raw = ge1 & ~(five | ten)
            # A zero run ends (top-down) where the plane below is non-zero
            # or at plane 0; it costs 8 bits, or 2 when it is one plane.
            ends = zero & ~(zero << 1)
            single = ends & ~(zero >> 1)

            signed = words[0] - ((words[0] >> 31) << 32)
            magnitude = signed ^ (signed >> 63)  # fits w bits iff < 2**(w-1)
            fits = [signed == 0] + [magnitude < 1 << w - 1 for _, w in _BASE_CLASSES]
            cost = np.select(fits, [3] + [3 + w for _, w in _BASE_CLASSES], 33)
            for weight, mask in ((5, five), (10, ten), (32, raw), (8, ends), (-6, single)):
                cost += weight * np.bitwise_count(mask).astype(np.int64)
            bits[start : start + cost.shape[0]] = 1 + cost
        return bits


#: Sentinel used by the decoder for planes known to have DBP == 0.
class _DBPZeroType:
    """Marker type: the encoder said this plane's DBP is all-zero."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DBP=0>"


_DBP_ZERO = _DBPZeroType()

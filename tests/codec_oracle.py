"""The per-entry oracle the bulk codecs are checked against.

Each codec in ``repro.compression`` is one vectorised
``compressed_sizes`` kernel.  This module is the slow, obviously-correct
form of each: one 128 B memory-entry (32 ``uint32`` words) at a time,
in plain Python integers.  For BPC it is a full encoder and decoder
over an MSB-first bitstream held as ``(value, bit_length)``, so every
size the kernel reports belongs to a stream that decodes back to its
entry (``test_compression_bpc.py``, ``test_bpc_golden.py``).  The
other codecs are sized word by word (``test_compression_algorithms.py``).

It imports nothing from ``repro.compression`` — the code it checks —
so a defect there cannot leak into the oracle
(``test_codec_oracle_is_independent`` in
``test_compression_algorithms.py`` pins this).
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.units import MEMORY_ENTRY_BYTES, WORDS_PER_ENTRY

RAW_BITS = MEMORY_ENTRY_BYTES * 8  # 1024


def _signed(value: int, bits: int) -> int:
    """``value``'s low ``bits`` bits read as two's complement."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def _capped_bytes(bits: int) -> int:
    return min((bits + 7) // 8, MEMORY_ENTRY_BYTES)


# ---------------------------------------------------------------------------
# BPC: the bit-exact codec.
# ---------------------------------------------------------------------------
BPC_DELTAS = WORDS_PER_ENTRY - 1  # 31 deltas -> 31-bit planes
BPC_PLANES = 33  # 33-bit deltas -> 33 planes
BPC_PLANE_MASK = (1 << BPC_DELTAS) - 1
BPC_BASE_CLASSES = ((0b001, 4), (0b010, 8), (0b011, 16))


def dbp_planes(words) -> list[int]:
    """The 33 delta bit-planes of one entry: bit ``j`` of plane ``b``
    is bit ``b`` of the 33-bit delta ``words[j + 1] - words[j]``."""
    values = [int(w) for w in words]
    deltas = [(b - a) % (1 << BPC_PLANES) for a, b in zip(values, values[1:])]
    return [
        sum(((delta >> bit) & 1) << j for j, delta in enumerate(deltas))
        for bit in range(BPC_PLANES)
    ]


def dbx_planes(dbp: list[int]) -> list[int]:
    """XOR adjacent planes; the top plane passes through."""
    return [dbp[b] ^ dbp[b + 1] for b in range(BPC_PLANES - 1)] + [dbp[-1]]


def is_two_consecutive_ones(plane: int) -> bool:
    """Exactly two set bits, and they are adjacent."""
    low = plane & -plane
    return plane != 0 and plane == low | (low << 1)


def _pack(fields) -> tuple[int, int]:
    """Concatenate ``(value, width)`` fields MSB-first."""
    value = length = 0
    for field, width in fields:
        assert 0 <= field < 1 << width, (field, width)
        value = (value << width) | field
        length += width
    return value, length


def _base_fields(word: int) -> list[tuple[int, int]]:
    signed = _signed(word, 32)
    if signed == 0:
        return [(0b000, 3)]
    for code, width in BPC_BASE_CLASSES:
        if -(1 << (width - 1)) <= signed < 1 << (width - 1):
            return [(code, 3), (signed % (1 << width), width)]
    return [(1, 1), (word, 32)]


def _plane_fields(dbp: list[int], dbx: list[int]) -> list[tuple[int, int]]:
    fields = []
    bit = BPC_PLANES - 1
    while bit >= 0:
        plane = dbx[bit]
        if plane == 0:
            run = 1
            while bit - run >= 0 and dbx[bit - run] == 0:
                run += 1
            fields += [(0b001, 3), (run - 2, 5)] if run >= 2 else [(0b01, 2)]
            bit -= run
            continue
        if plane == BPC_PLANE_MASK:
            fields.append((0b00000, 5))
        elif dbp[bit] == 0:
            fields.append((0b00001, 5))
        elif is_two_consecutive_ones(plane):
            fields += [(0b00010, 5), ((plane & -plane).bit_length() - 1, 5)]
        elif plane & (plane - 1) == 0:
            fields += [(0b00011, 5), (plane.bit_length() - 1, 5)]
        else:
            fields += [(1, 1), (plane, BPC_DELTAS)]
        bit -= 1
    return fields


def bpc_encode(words) -> tuple[int, int]:
    """One entry's BPC stream as ``(value, bit_length)``, MSB-first.

    A leading ``0`` flags a compressed stream.  When that stream would
    not beat the raw 1,024 bits, the entry is stored raw behind a
    ``1`` flag instead (hardware keeps the choice in the size
    metadata; the in-stream flag keeps the stream self-describing).
    """
    values = [int(w) for w in words]
    dbp = dbp_planes(values)
    stream = _pack([(0, 1), *_base_fields(values[0]), *_plane_fields(dbp, dbx_planes(dbp))])
    if stream[1] >= 1 + RAW_BITS:
        stream = _pack([(1, 1)] + [(word, 32) for word in values])
    return stream


def bpc_decode(stream: tuple[int, int]) -> np.ndarray:
    """The 32 words a :func:`bpc_encode` stream encodes."""
    value, length = stream
    bits = iter(format(value, f"0{length}b"))

    def read(width: int) -> int:
        return int("0" + "".join(islice(bits, width)), 2)

    if read(1):
        return np.array([read(32) for _ in range(WORDS_PER_ENTRY)], dtype=np.uint32)
    if read(1):
        base = read(32)
    else:
        width = (0, 4, 8, 16)[read(2)]
        base = _signed(read(width), width) % (1 << 32) if width else 0

    # DBX planes, top down; None marks a plane whose DBP is zero.
    dbx: list[int | None] = []
    while len(dbx) < BPC_PLANES:
        if read(1):
            dbx.append(read(BPC_DELTAS))
        elif read(1):
            dbx.append(0)
        elif read(1):
            dbx += [0] * (read(5) + 2)
        else:
            code = read(2)
            if code == 0b00:
                dbx.append(BPC_PLANE_MASK)
            elif code == 0b01:
                dbx.append(None)
            else:
                dbx.append((0b11 if code == 0b10 else 0b1) << read(5))
    dbp = [0] * (BPC_PLANES + 1)  # a zero plane above the top one
    for bit, plane in zip(range(BPC_PLANES - 1, -1, -1), dbx):
        dbp[bit] = 0 if plane is None else plane ^ dbp[bit + 1]

    words = [base]
    for j in range(BPC_DELTAS):
        delta = sum(((dbp[bit] >> j) & 1) << bit for bit in range(BPC_PLANES))
        words.append((words[-1] + _signed(delta, BPC_PLANES)) % (1 << 32))
    return np.array(words, dtype=np.uint32)


def bpc_size(words) -> int:
    """BPC compressed size of one entry in bytes, capped at 128."""
    return _capped_bytes(bpc_encode(words)[1])


# ---------------------------------------------------------------------------
# The comparison codecs: sizes only.
# ---------------------------------------------------------------------------
def zeroblock_size(words) -> int:
    """0 B for an all-zero entry, else stored raw."""
    return MEMORY_ENTRY_BYTES if any(int(w) for w in words) else 0


#: BDI's (base bytes, delta bytes) classes.
BDI_CLASSES = ((8, 1), (4, 1), (8, 2), (2, 1), (4, 2), (8, 4))


def bdi_size(words) -> int:
    """Base-Delta-Immediate: a 1 B header plus the smallest class that
    holds the entry; all-zero is the header alone, a repeated 8 B value
    header plus 8 B."""
    raw = np.asarray(words, dtype=np.uint32).tobytes()
    if not any(raw):
        return 1
    qwords = {raw[i : i + 8] for i in range(0, MEMORY_ENTRY_BYTES, 8)}
    if len(qwords) == 1:
        return 1 + 8
    sizes = [MEMORY_ENTRY_BYTES]
    for base, delta in BDI_CLASSES:
        values = [
            int.from_bytes(raw[i : i + base], "little")
            for i in range(0, MEMORY_ENTRY_BYTES, base)
        ]
        half = 1 << (8 * delta - 1)
        if all(-half <= _signed(v - values[0], 8 * base) < half for v in values):
            sizes.append(1 + base + len(values) * delta)
    return min(sizes)


def _fpc_payload_bits(word: int) -> int:
    """FPC payload bits for one word outside a zero run."""
    signed = _signed(word, 32)
    for bits in (4, 8, 16):
        if -(1 << (bits - 1)) <= signed < 1 << (bits - 1):
            return bits
    if word & 0xFFFF == 0:
        return 16  # halfword padded with zeros
    if all(-128 <= _signed(half, 16) < 128 for half in (word & 0xFFFF, word >> 16)):
        return 16  # two sign-extended bytes
    if len(set(word.to_bytes(4, "little"))) == 1:
        return 8  # repeated bytes
    return 32


def fpc_size(words) -> int:
    """Frequent Pattern Compression: a 3-bit prefix per word, and one
    prefix plus a 3-bit length per run of up to 8 zero words."""
    bits = run = 0
    for word in (int(w) for w in words):
        if word == 0:
            bits += 6 if run % 8 == 0 else 0
            run += 1
        else:
            bits += 3 + _fpc_payload_bits(word)
            run = 0
    return _capped_bytes(bits)


def cpack_size(words) -> int:
    """C-PACK with a 16-entry FIFO dictionary that starts empty."""
    dictionary: list[int] = []
    bits = 0
    for word in (int(w) for w in words):
        if word == 0:
            bits += 2
            continue
        if word <= 0xFF:
            bits += 4 + 8
            continue
        if word in dictionary:
            bits += 2 + 4
            continue
        if any(entry >> 8 == word >> 8 for entry in dictionary):
            bits += 4 + 4 + 8
        elif any(entry >> 16 == word >> 16 for entry in dictionary):
            bits += 4 + 4 + 16
        else:
            bits += 2 + 32
        dictionary = (dictionary + [word])[-16:]
    return _capped_bytes(bits)

"""Morton (Z-order) keys for octree cells.

A key interleaves the bits of the three integer cell coordinates, most
significant bits first, so that the key of a child cell is its parent's
key extended by three low bits.  One 64-bit word holds at most 63
interleaved bits, which caps the octree depth at :data:`MAX_LEVEL`.
"""
from __future__ import annotations

import numpy as np

from .errors import PrecisionLimitError

MAX_LEVEL = 21

_U = np.uint64
_MASKS_SPREAD = (
    _U(0x1F00000000FFFF),
    _U(0x1F0000FF0000FF),
    _U(0x100F00F00F00F00F),
    _U(0x10C30C30C30C30C3),
    _U(0x1249249249249249),
)
_SHIFTS = (_U(32), _U(16), _U(8), _U(4), _U(2))


def _check_level(level: int) -> None:
    if not 0 <= level <= MAX_LEVEL:
        raise PrecisionLimitError(
            f"level {level} outside [0, {MAX_LEVEL}]: 3 bits per level "
            f"exceed a 64-bit key word past {MAX_LEVEL} levels"
        )


def spread_bits(v):
    """Spread the low 21 bits of ``v`` so bit i lands at position 3*i."""
    x = np.asarray(v, dtype=np.uint64) & _U(0x1FFFFF)
    for shift, mask in zip(_SHIFTS, _MASKS_SPREAD):
        x = (x | (x << shift)) & mask
    return x


def compact_bits(v):
    """Inverse of :func:`spread_bits`: gather every third bit."""
    x = np.asarray(v, dtype=np.uint64) & _MASKS_SPREAD[-1]
    for shift, mask in zip(reversed(_SHIFTS), _MASKS_SPREAD[-2::-1] + (_U(0x1FFFFF),)):
        x = (x ^ (x >> shift)) & mask
    return x


def encode_cells(coords, level: int):
    """Interleave integer cell coordinates into Morton key bits.

    Parameters
    ----------
    coords : array_like, shape (..., 3)
        Integer coordinates, each in [0, 2**level); ValueError otherwise.
    level : int

    Returns
    -------
    np.uint64 array of shape (...,)
    """
    _check_level(level)
    c = np.asarray(coords)
    if c.dtype != np.uint64:
        # Viewed as uint64, a negative coordinate lies above every side length.
        c = c.astype(np.int64, copy=False).view(np.uint64)
    if np.any(c >= np.uint64(1) << _U(level)):
        raise ValueError(f"cell coordinates out of range for level {level}")
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    return (spread_bits(x) << _U(2)) | (spread_bits(y) << _U(1)) | spread_bits(z)


def decode_cells(bits, level: int):
    """Recover the (..., 3) integer cell coordinates of Morton keys."""
    _check_level(level)
    b = np.asarray(bits, dtype=np.uint64)
    out = np.empty(b.shape + (3,), dtype=np.int64)
    out[..., 0] = compact_bits(b >> _U(2)).astype(np.int64)
    out[..., 1] = compact_bits(b >> _U(1)).astype(np.int64)
    out[..., 2] = compact_bits(b).astype(np.int64)
    return out


def points_to_keys(positions, level: int):
    """Morton keys of the level-``level`` cells containing each point.

    Cells are half-open boxes [a, b) per axis, so every point of the
    half-open unit cube has exactly one owner cell.
    """
    _check_level(level)
    p = np.asarray(positions, dtype=np.float64)
    if not ((p >= 0.0) & (p < 1.0)).all():  # NaN fails both tests
        raise ValueError("positions must lie in the half-open unit cube [0,1)^3")
    side = 1 << level
    cells = np.minimum((p * side).astype(np.int64), side - 1)
    return encode_cells(cells, level)

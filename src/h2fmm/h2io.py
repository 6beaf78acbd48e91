"""Binary container for compressed matrices, format version 4.

Layout (little-endian; see the README): magic b"H2FM", u32 version, u64
header length, a JSON header (kernel, tolerances, sizes) space-padded so
the arrays start 8-byte aligned, then the arrays of :func:`_layout`, raw
and back to back.  The header fixes every array's dtype and length, so a
truncated file, trailing bytes or any other version (1 to 3 included)
raise :class:`ContainerError`.

The octree is not stored.  The particles are, in the order the tree was
built from, and the reader rebuilds the tree with :func:`build_tree`
(then :func:`balance_2to1` when ``balanced``), warning again about
coincident particles past level 21.  A position that is not finite or
outside [0, 1)^3, a repeated particle index, a ``leaf_capacity`` that is
not an integer >= 1, a ``balanced`` that is not a bool, a kernel or
``eps`` that :func:`compress` would refuse, a tail that is not finite or
below 0, and a node count other than the rebuilt tree's are rejected; so
are ranks and block ids that do not fit the rebuilt tree, block pairs
not sorted by row node, and a low-rank pair whose mirror is missing.
The admissibility rule is not stored: an ``eta`` or ``max_rank`` key
from earlier writers is ignored.  The basis, coupling
and dense data are not scanned; ``h2fmm matvec`` rejects a product that
is not finite.  This module reads and writes bytes; :func:`h2.assemble`
builds the matrix, laying out the basis shape groups and the block rows
of the coupling and dense data from the tree, block partition and ranks,
which must imply the stored data lengths.  A read-back reproduces the
matrix bit for bit; gather arrays are not stored.  The loaded stores map
the file: a save over it leaves them intact, but a program that
truncates or rewrites it in place can change them or raise SIGBUS;
``decode(Path(path).read_bytes())`` takes a private snapshot.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import mmap
import os
import stat
import struct

import numpy as np

from .errors import ContainerError
from .geometry import ParticleSet
from .h2 import BlockTree, H2Matrix, assemble, check_parameters
from .kernels import KernelSpec
from .tree import balance_2to1, build_tree

MAGIC = b"H2FM"
VERSION = 4
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length

_BLOCKS = ("lr_row", "lr_col", "dense_row", "dense_col")
_STORES = ("basis", "coupling", "dense")


def _layout(h):
    """(name, dtype, shape) of every array, in file order.

    Eight-byte types come first, so every array is aligned in memory.
    """
    n, nodes, lr, dn = h["n"], h["n_nodes"], h["n_lowrank"], h["n_dense"]
    return [
        ("positions", "<f8", (n, 3)),
        ("charges", "<f8", (n,)),
        ("indices", "<i8", (n,)),
        ("tails", "<f8", (nodes,)),
        ("lr_row", "<i8", (lr,)),
        ("lr_col", "<i8", (lr,)),
        ("dense_row", "<i8", (dn,)),
        ("dense_col", "<i8", (dn,)),
        ("basis", "<f8", (h["basis_size"],)),
        ("coupling", "<f8", (h["coupling_size"],)),
        ("dense", "<f8", (h["dense_size"],)),
        ("ranks", "<i4", (nodes,)),
    ]


def save_h2(h2: H2Matrix, path) -> None:
    """Serialize the compressed matrix to the binary container.  A regular
    file the caller may write (a symlink's target) is deleted, not truncated,
    and written anew: other hard links and a process mapping it keep the old
    bytes, the mode follows the umask, and a crash leaves no file or a short
    one :func:`decode` rejects.  Anything else is opened as by ``open``."""
    tree, blocks = h2.octree, h2.blocks
    stores = (h2.row_basis.mats, blocks.coupling, blocks.dense)
    header = {
        "kernel": dataclasses.asdict(h2.kernel),
        "eps": h2.eps,
        "n": tree.n_particles,
        "n_nodes": tree.n_nodes,
        "leaf_capacity": tree.leaf_capacity,
        "balanced": tree.balanced,
        "n_lowrank": blocks.n_lowrank,
        "n_dense": blocks.n_dense,
        **{name + "_size": p.data.size for name, p in zip(_STORES, stores)},
    }
    arrays = {name: getattr(blocks, name) for name in _BLOCKS}
    arrays.update({name: p.data for name, p in zip(_STORES, stores)})
    particles = tree.particles.take(np.argsort(tree.order))  # as build_tree received them
    arrays.update(positions=particles.positions, charges=particles.charges,
                  indices=particles.indices, ranks=h2.row_basis.ranks, tails=h2.row_basis.tails)
    blob = json.dumps(header).encode()
    blob += b" " * (-(_PREFIX.size + len(blob)) % 8)
    if os.path.isfile(path := os.path.realpath(path)) and os.access(path, os.W_OK):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)  # a truncate would wait for the old bytes' write-back
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(blob)))
        fh.write(blob)
        for name, dtype, shape in _layout(header):
            fh.write(np.ascontiguousarray(arrays[name], dtype).reshape(shape).data)


def load_h2(path) -> H2Matrix:
    """Map a container written by :func:`save_h2` copy-on-write and decode it.

    Anything but a regular file is refused, a FIFO without waiting for a
    writer.  Each loaded matrix holds one open file descriptor until it is
    freed: ``mmap`` keeps a duplicate, before Python 3.13 without a way to
    drop it.  ``decode(Path(path).read_bytes())`` holds none."""
    try:
        with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise ContainerError(f"cannot read container {path}: not a regular file")
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) if info.st_size else b""
    except OSError as exc:
        raise ContainerError(f"cannot read container {path}: {exc.strerror}") from None
    return decode(buf)


def _require(ok, message):
    if not ok:
        raise ContainerError(message)


def decode(buf) -> H2Matrix:
    """The matrix held in container bytes; its stores share ``buf``'s memory,
    and the arrays checked here are copies, so later writes cannot undo them."""
    _require(len(buf) >= _PREFIX.size, f"container truncated to {len(buf)} bytes")
    magic, version, hlen = _PREFIX.unpack_from(buf)
    _require(magic == MAGIC, f"not an H2 container (magic {magic!r})")
    _require(version == VERSION, f"unsupported container version {version}; expected {VERSION}")
    pos = _PREFIX.size + hlen
    try:
        header = json.loads(bytes(buf[_PREFIX.size : pos]))
        layout = _layout(header)
        eps = header["eps"]
        capacity, balanced = header["leaf_capacity"], header["balanced"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ContainerError(f"malformed container header: {exc!r}") from None
    dims = [d for _, _, shape in layout for d in shape]
    _require(all(type(d) is int and d >= 0 for d in dims), "header sizes must be counts")
    arrays = {}
    for name, dtype, shape in layout:
        count = math.prod(shape)
        end = pos + count * np.dtype(dtype).itemsize
        _require(end <= len(buf), f"container truncated in array {name!r}")
        view = np.frombuffer(buf, dtype, count, pos).reshape(shape)
        arrays[name] = view if name in _STORES else view.copy()
        pos = end
    _require(pos == len(buf), f"{len(buf) - pos} trailing bytes after the last array")
    _require(type(capacity) is int, f"leaf_capacity must be an integer, got {capacity!r}")
    _require(type(balanced) is bool, f"balanced must be true or false, got {balanced!r}")
    tails = arrays["tails"]
    _require(np.isfinite(tails).all() and (tails >= 0).all(), "tails must be finite and >= 0")
    try:
        kernel = KernelSpec(**header["kernel"])
        check_parameters(kernel, eps)
        particles = ParticleSet(arrays["positions"], arrays["indices"], arrays["charges"])
        tree = build_tree(particles, capacity)
        tree = balance_2to1(tree) if balanced else tree
    except (ValueError, KeyError, TypeError) as exc:
        raise ContainerError(f"inconsistent container: {exc}") from None
    nodes, ranks = header["n_nodes"], arrays["ranks"]
    _require(nodes == tree.n_nodes, f"header holds {nodes} nodes; the particles build {tree.n_nodes}")
    _require(((ranks >= 0) & (ranks <= tree.counts)).all(), "ranks out of range")
    ids = np.concatenate([arrays[name] for name in _BLOCKS])
    _require(((ids >= 0) & (ids < nodes)).all(), "block node ids out of range")
    for name in ("lr_row", "dense_row"):
        _require((np.diff(arrays[name]) >= 0).all(), f"{name} must be sorted by row node")
    rows, cols = arrays["lr_row"], arrays["lr_col"]
    pairs, mirrors = np.sort(rows * nodes + cols), np.sort(cols * nodes + rows)
    _require(np.array_equal(pairs, mirrors), "the low-rank pairs must be symmetric: each (i, j) needs its (j, i)")
    try:
        blocks = BlockTree(*(arrays[name] for name in _BLOCKS))
        data = tuple(arrays[name] for name in _STORES)
        return assemble(tree, kernel, eps, blocks, ranks, tails, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ContainerError(f"inconsistent container: {exc!r}") from exc

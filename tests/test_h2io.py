import contextlib
import dataclasses
import json
import math
import os
import re
import stat
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from h2fmm import h2io
from h2fmm.cli import main
from h2fmm.errors import ContainerError
from h2fmm.geometry import DistributionSpec, generate
from h2fmm.h2 import compress, matvec, storage_report
from h2fmm.h2io import _PREFIX, _layout, decode, load_h2, save_h2
from h2fmm.kernels import KernelSpec
from h2fmm.tree import build_tree


@pytest.fixture(scope="module")
def small_h2():
    ps = generate(DistributionSpec("plummer", 700, seed=2))
    t = build_tree(ps, 16)
    return compress(t, KernelSpec("laplace3d", regularization=1e-2), eps=1e-5)


@pytest.fixture(scope="module")
def tiny_container(tmp_path_factory):
    """Bytes of a container small enough to cut at every offset."""
    ps = generate(DistributionSpec("random-cube", 48, seed=3))
    m = compress(build_tree(ps, 4), KernelSpec("laplace3d", regularization=1e-2), eps=1e-4)
    assert m.blocks.coupling.data.size and m.blocks.dense.data.size
    path = tmp_path_factory.mktemp("tiny") / "t.h2"
    save_h2(m, path)
    return path.read_bytes()


def test_container_roundtrip_bitwise(small_h2, tmp_path):
    path = tmp_path / "m.h2"
    save_h2(small_h2, path)
    back = load_h2(path)
    assert back.n == small_h2.n
    assert back.kernel == small_h2.kernel
    assert back.eps == small_h2.eps and "eta" not in _header(path.read_bytes())
    assert back.summary()["eta"] == 1.75
    assert np.array_equal(back.octree.keys, small_h2.octree.keys)
    assert np.array_equal(back.octree.order, small_h2.octree.order)
    assert np.array_equal(back.row_basis.ranks, small_h2.row_basis.ranks)
    for name in ("lr_row", "lr_col", "dense_row", "dense_col"):
        assert np.array_equal(getattr(back.blocks, name), getattr(small_h2.blocks, name))
    pairs = (
        (back.row_basis.mats, small_h2.row_basis.mats),
        (back.blocks.coupling, small_h2.blocks.coupling),
        (back.blocks.dense, small_h2.blocks.dense),
    )
    for a, b in pairs:
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(small_h2.n)
    assert np.array_equal(matvec(back, x), matvec(small_h2, x))
    assert storage_report(back) == storage_report(small_h2)


def test_magic_and_version_checks(small_h2, tmp_path):
    path = tmp_path / "m.h2"
    save_h2(small_h2, path)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.h2"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        load_h2(bad)
    worse = bytearray(raw)
    worse[4:8] = (99).to_bytes(4, "little")
    bad2 = tmp_path / "bad2.h2"
    bad2.write_bytes(bytes(worse))
    with pytest.raises(ValueError, match="version"):
        load_h2(bad2)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_version_1_rejected(tiny_container, tmp_path, capsys, version):
    raw = bytearray(tiny_container)
    raw[4:8] = version.to_bytes(4, "little")
    with pytest.raises(ContainerError, match=f"version {version}"):
        decode(raw)
    path = tmp_path / "old.h2"
    path.write_bytes(raw)
    assert main(["matvec", "--matrix", str(path), "--no-oracle", "--summary", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"version {version}" in err and err.count("\n") == 1


def _header(raw):
    return json.loads(raw[_PREFIX.size : _PREFIX.size + _PREFIX.unpack_from(raw)[2]])


def test_container_stores_particles_not_the_tree(tiny_container):
    names = [name for name, _, _ in _layout(_header(tiny_container))]
    assert len(names) == 12 and "positions" in names
    assert not {"order", "keys21", "keys", "parents", "is_leaf"} & set(names)


def test_truncation_at_every_offset_rejected(tiny_container):
    for cut in range(len(tiny_container)):
        with pytest.raises(ContainerError):
            decode(bytearray(tiny_container[:cut]))


@settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suffix=st.binary(min_size=1, max_size=64))
def test_appended_bytes_rejected(tiny_container, suffix):
    with pytest.raises(ContainerError, match="trailing"):
        decode(bytearray(tiny_container + suffix))


def _resave(m, directory):
    path = directory / "m.h2"
    save_h2(m, path)
    return path.read_bytes()


def test_inconsistent_ranks_rejected(tiny_container, tmp_path):
    m = decode(bytearray(tiny_container))
    m.row_basis.ranks[np.argmax(m.row_basis.ranks)] -= 1
    with pytest.raises(ContainerError, match="basis data"):
        decode(bytearray(_resave(m, tmp_path)))


def _stores(m):
    return (m.row_basis.mats.data, m.blocks.coupling.data, m.blocks.dense.data)


def test_decode_accepts_any_bytes_like(tiny_container, tmp_path):
    raw = tiny_container
    ms = [decode(buf) for buf in (raw, bytearray(raw), np.frombuffer(raw, np.uint8).copy())]
    for m in ms[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(_stores(m), _stores(ms[0])))
    assert all(_resave(m, tmp_path) == raw for m in ms)


def test_loaded_stores_are_writable_views_of_the_read_buffer(tiny_container, tmp_path, monkeypatch):
    read = []
    monkeypatch.setattr(h2io, "decode", lambda buf: read.append(buf) or decode(buf))
    path = tmp_path / "t.h2"
    path.write_bytes(tiny_container)
    m = load_h2(path)
    (buf,) = read
    assert bytes(buf) == tiny_container
    for store in _stores(m):
        assert store.size and store.flags.writeable and np.shares_memory(store, buf)


def _offset(raw, array):
    """Byte offset of ``array`` in container bytes ``raw``."""
    pos = _PREFIX.size + _PREFIX.unpack_from(raw)[2]
    for name, dtype, shape in _layout(_header(raw)):
        if name == array:
            return pos
        pos += math.prod(shape) * np.dtype(dtype).itemsize


def test_load_short_file_rejected(tiny_container, tmp_path):
    empty = tmp_path / "empty.h2"
    empty.write_bytes(b"")
    with pytest.raises(ContainerError, match="^container truncated to 0 bytes$"):
        load_h2(empty)
    cut = tmp_path / "cut.h2"
    cut.write_bytes(tiny_container[: _offset(tiny_container, "coupling") + 12])
    with pytest.raises(ContainerError, match="^container truncated in array 'coupling'$"):
        load_h2(cut)


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_load_non_container_paths_rejected(tiny_container, tmp_path, kind):
    # An empty file is test_load_short_file_rejected's first case.
    path = tmp_path / kind
    message = f"cannot read container {path}: not a regular file"
    if kind == "directory":
        path.mkdir()
        message = f"cannot read container {path}: Is a directory"
    else:
        os.mkfifo(path)
        writer = os.open(path, os.O_RDWR | os.O_NONBLOCK)  # so the reader's open does not block
        os.write(writer, tiny_container[:64])
    try:
        with pytest.raises(ContainerError, match=f"^{re.escape(message)}$"):
            load_h2(path)
    finally:
        if kind == "fifo":
            os.close(writer)


def test_load_fifo_without_writer_does_not_block(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    raised = []

    def load():
        try:
            load_h2(path)
        except ContainerError as exc:
            raised.append(exc)

    reader = threading.Thread(target=load, daemon=True)
    reader.start()
    try:
        reader.join(10)
        assert not reader.is_alive(), "load_h2 blocked on a FIFO with no writer"
        assert len(raised) == 1 and "not a regular file" in str(raised[0])
    finally:
        with contextlib.suppress(OSError):  # releases a reader blocked in open
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))


def _loaded(raw, directory):
    """``raw`` saved at ``directory / "t.h2"``, loaded, and a product of a fresh decode."""
    path = directory / "t.h2"
    path.write_bytes(raw)
    m = load_h2(path)
    x = np.random.default_rng(5).standard_normal(m.n)
    return path, m, x, matvec(decode(raw), x)


def test_loaded_matrix_survives_a_save_over_its_file(tiny_container, tmp_path):
    path, m, x, y = _loaded(tiny_container, tmp_path)
    save_h2(m, path)  # before the first product touches the mapped stores
    assert path.read_bytes() == tiny_container
    assert np.array_equal(matvec(m, x), y)
    path.unlink()
    assert np.array_equal(matvec(m, x), y)
    save_h2(m, path)
    assert path.read_bytes() == tiny_container


def test_save_through_a_symlink_replaces_the_target(tiny_container, tmp_path):
    target, link, other = tmp_path / "target.h2", tmp_path / "link.h2", tmp_path / "other.h2"
    target.write_bytes(b"old")
    os.link(target, other)
    link.symlink_to(target)
    save_h2(decode(tiny_container), link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == tiny_container
    assert other.read_bytes() == b"old"  # another hard link keeps the old bytes


def test_save_writes_into_a_fifo(tiny_container, tmp_path):
    # Only a regular file is deleted and written anew; a FIFO, like a device
    # such as /dev/null, is written into.
    path = tmp_path / "fifo"
    os.mkfifo(path)
    read = []
    reader = threading.Thread(target=lambda: read.append(path.read_bytes()), daemon=True)
    reader.start()
    save_h2(decode(tiny_container), path)
    reader.join(10)
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    assert read == [tiny_container]


def test_save_never_deletes_a_file_it_may_not_write(tiny_container, tmp_path, monkeypatch):
    path = tmp_path / "t.h2"
    path.write_bytes(b"old")
    path.chmod(0o444)
    access, target = os.access, os.path.realpath(path)  # root may write any file: deny this one
    monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode) and os.path.realpath(p) != target)
    monkeypatch.setattr(os, "remove", lambda p: pytest.fail(f"save_h2 deleted {p}"))
    if os.geteuid() == 0:  # open still writes it, as at every version
        save_h2(decode(tiny_container), path)
        assert path.read_bytes() == tiny_container
    else:
        with pytest.raises(PermissionError):
            save_h2(decode(tiny_container), path)
        assert path.read_bytes() == b"old"


@pytest.mark.parametrize("array", ["ranks", "lr_row"])
def test_in_place_rewrite_after_load_changes_nothing(tiny_container, tmp_path, array):
    # The checked arrays are copied out of the mapping, so a later write to
    # the file cannot get round the checks.
    path, m, x, y = _loaded(tiny_container, tmp_path)
    ref = decode(tiny_container)
    with open(path, "r+b") as fh:
        fh.seek(_offset(tiny_container, array))
        fh.write(b"\xff" * 8)
    assert path.read_bytes() != tiny_container
    assert np.array_equal(m.row_basis.ranks, ref.row_basis.ranks)
    assert np.array_equal(m.blocks.lr_row, ref.blocks.lr_row)
    assert np.array_equal(matvec(m, x), y)


def test_writes_to_loaded_stores_stay_private(tiny_container, tmp_path):
    path, m, _, _ = _loaded(tiny_container, tmp_path)
    for store in _stores(m):
        store[:] = 7.0
    assert path.read_bytes() == tiny_container
    del m
    assert path.read_bytes() == tiny_container


@settings(max_examples=12, deadline=None)
@given(
    dist=st.sampled_from(["random-cube", "sphere-surface", "plummer"]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**16),
    kernel=st.sampled_from(["laplace3d", "laplace2d", "gaussian", "one"]),
    eps=st.sampled_from([1e-2, 1e-5, 1e-8]),
    leaf=st.integers(1, 16),
)
def test_save_load_save_byte_identical(tmp_path_factory, dist, n, seed, kernel, eps, leaf):
    tree = build_tree(generate(DistributionSpec(dist, n, seed)), leaf)
    m = compress(tree, KernelSpec(kernel, regularization=1e-2, sigma=0.5), eps=eps)
    directory = tmp_path_factory.mktemp("resave")
    raw = _resave(m, directory)
    back = decode(bytearray(raw))
    assert _resave(back, directory) == raw
    x = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(matvec(back, x), matvec(m, x))


def _rewrite(raw, header=lambda head: {}, **arrays):
    """Container bytes with header fields and arrays edited, the framing kept valid.

    ``header`` maps the old header to the fields to replace; each array
    keyword maps the old array to the new one.
    """
    magic, version, hlen = _PREFIX.unpack_from(raw)
    head, pos = _header(raw), _PREFIX.size + hlen
    held = {}
    for name, dtype, shape in _layout(head):
        held[name] = np.frombuffer(raw, dtype, math.prod(shape), pos).reshape(shape).copy()
        pos += held[name].nbytes
    head.update(header(head))
    held.update({name: edit(held[name]) for name, edit in arrays.items()})
    blob = json.dumps(head).encode()
    blob += b" " * (-(_PREFIX.size + len(blob)) % 8)
    out = _PREFIX.pack(magic, version, len(blob)) + blob
    return out + b"".join(np.ascontiguousarray(held[n], t).tobytes() for n, t, _ in _layout(head))


def _set(index, value):
    def edit(a):
        a[index] = value
        return a

    return edit


def _grow(a):
    return np.append(a, a[:1])


CORRUPT = {
    "nan-position": dict(positions=_set((0, 1), np.nan)),
    "position-at-1": dict(positions=_set((0, 0), 1.0)),
    "negative-position": dict(positions=_set((3, 2), -0.25)),
    "repeated-index": dict(indices=_set(1, 0)),
    "leaf-capacity-0": dict(header=lambda head: {"leaf_capacity": 0}),
    "leaf-capacity-16.5": dict(header=lambda head: {"leaf_capacity": 16.5}),
    "leaf-capacity-str": dict(header=lambda head: {"leaf_capacity": "16"}),
    "balanced-int": dict(header=lambda head: {"balanced": 1}),
    "balanced-str": dict(header=lambda head: {"balanced": "false"}),
    "extra-node": dict(header=lambda head: {"n_nodes": head["n_nodes"] + 1}, ranks=_grow, tails=_grow),
    "eps-str": dict(header=lambda head: {"eps": "x"}),
    "eps-0": dict(header=lambda head: {"eps": 0}),
    "eps-1.5": dict(header=lambda head: {"eps": 1.5}),
    "eps-true": dict(header=lambda head: {"eps": True}),
    "laplace-delta-0": dict(header=lambda head: {"kernel": dict(head["kernel"], regularization=0.0)}),
    "delta-true": dict(header=lambda head: {"kernel": dict(head["kernel"], regularization=True)}),
    "delta-str": dict(header=lambda head: {"kernel": dict(head["kernel"], regularization="0.01")}),
    "sigma-true": dict(header=lambda head: {"kernel": dict(head["kernel"], sigma=True)}),
    "sigma-1e-300": dict(header=lambda head: {"kernel": dict(head["kernel"], kind="gaussian", sigma=1e-300)}),
    "delta-1e300": dict(header=lambda head: {"kernel": dict(head["kernel"], regularization=1e300)}),
    "nan-tail": dict(tails=_set(0, np.nan)),
    "negative-tail": dict(tails=_set(1, -1.0)),
    "lr-unsorted": dict(lr_row=np.flip, lr_col=np.flip),
    "dense-unsorted": dict(dense_row=np.flip, dense_col=np.flip),
    # The last pair (i, j) has i > j, so only its mirror is stored as coupling
    # data: the store's length still fits, the partition does not.
    "lr-mirror-missing": dict(
        header=lambda head: {"n_lowrank": head["n_lowrank"] - 1}, lr_row=lambda a: a[:-1], lr_col=lambda a: a[:-1]
    ),
}


def test_rewrite_unchanged_is_identity(tiny_container):
    assert _rewrite(tiny_container) == tiny_container


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_particles_and_header_rejected(tiny_container, case):
    with pytest.raises(ContainerError):
        decode(bytearray(_rewrite(tiny_container, **CORRUPT[case])))


def test_flagged_nodes_report_stored_tails(tiny_container):
    # A tail above eps is flagged whether compress left it or the file holds it.
    assert decode(bytearray(tiny_container)).summary()["flagged_nodes"] == 0
    eps, k = _header(tiny_container)["eps"], 5
    m = decode(bytearray(_rewrite(tiny_container, tails=_set(k, 2 * eps))))
    assert m.flagged_nodes() == [(k, 2 * eps)]
    assert m.summary()["flagged_nodes"] == 1


@pytest.mark.parametrize("value", [None, 3, "x"])
def test_header_max_rank_key_ignored(tiny_container, value):
    # Earlier writers stored a rank cap under "max_rank"; the key is ignored
    # like any unknown one, and the product is unchanged.
    old = decode(bytearray(_rewrite(tiny_container, header=lambda head: {"max_rank": value})))
    new = decode(bytearray(tiny_container))
    x = np.random.default_rng(0).standard_normal(new.n)
    assert np.array_equal(matvec(old, x), matvec(new, x))


@pytest.mark.parametrize("value", [1.75, 2.0, "x", None])
def test_header_eta_key_ignored(tiny_container, value):
    # Earlier writers stored the admissibility parameter under "eta" (1.75 in
    # every such file); the rule is h2's, the key is ignored, the product unchanged.
    old = decode(bytearray(_rewrite(tiny_container, header=lambda head: {"eta": value})))
    new = decode(bytearray(tiny_container))
    x = np.random.default_rng(0).standard_normal(new.n)
    assert np.array_equal(matvec(old, x), matvec(new, x))


def _last_upper_pair_and_mirror(rows, cols):
    t = np.flatnonzero(rows < cols)[-1]
    return [t, np.flatnonzero((rows == cols[t]) & (cols == rows[t]))[0]]


def _first_off_diagonal_pair(rows, cols):
    return [np.flatnonzero(rows != cols)[0]]


# A block partition short of pairs whose stored data remains: (arrays' prefix,
# header count, the pairs to drop, the error).
SHORT_PARTITION = {
    "coupling": (
        "lr", "n_lowrank", _last_upper_pair_and_mirror, "coupling data holds 452 reals; the tree implies 450"
    ),
    "dense": ("dense", "n_dense", _first_off_diagonal_pair, "dense data holds 1400 reals; the tree implies 1388"),
}


@pytest.mark.parametrize("case", sorted(SHORT_PARTITION))
def test_store_length_other_than_the_partition_implies_rejected(tiny_container, tmp_path, capsys, case):
    prefix, count, pick, message = SHORT_PARTITION[case]
    m = decode(bytearray(tiny_container))
    drop = pick(getattr(m.blocks, prefix + "_row"), getattr(m.blocks, prefix + "_col"))
    edit = {prefix + side: lambda a: np.delete(a, drop) for side in ("_row", "_col")}
    raw = _rewrite(tiny_container, header=lambda head: {count: head[count] - len(drop)}, **edit)
    with pytest.raises(ContainerError, match=message):
        decode(bytearray(raw))
    path = tmp_path / "short.h2"
    path.write_bytes(raw)
    assert main(["matvec", "--matrix", str(path), "--summary", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_matvec_on_corrupt_container_exits_2(tiny_container, tmp_path, capsys, case):
    path = tmp_path / "bad.h2"
    path.write_bytes(_rewrite(tiny_container, **CORRUPT[case]))
    assert main(["matvec", "--matrix", str(path), "--summary", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "s.json").exists()


def test_matvec_on_nan_basis_exits_2(tiny_container, tmp_path, capsys):
    # The packed data are not scanned at load; the product shows the NaN.
    path = tmp_path / "nan.h2"
    path.write_bytes(_rewrite(tiny_container, basis=_set(0, np.nan)))
    decode(bytearray(path.read_bytes()))
    out = tmp_path / "y.csv"
    argv = ["matvec", "--matrix", str(path), "--out", str(out), "--summary", str(tmp_path / "s.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "s.json").exists()

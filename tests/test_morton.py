import numpy as np
import pytest

from h2fmm.errors import PrecisionLimitError
from h2fmm.morton import MAX_LEVEL, decode_cells, encode_cells, points_to_keys


def encode_one(coords, level):
    return int(encode_cells(np.array([coords]), level)[0])


def decode_one(bits, level):
    return tuple(decode_cells(np.array([bits], dtype=np.uint64), level)[0].tolist())


def test_root_key():
    assert encode_one((0, 0, 0), 0) == 0


def test_level1_roundtrip_pinned():
    bits = encode_one((1, 0, 1), 1)
    assert bits < 8
    assert decode_one(bits, 1) == (1, 0, 1)


def test_roundtrip_random_levels():
    rng = np.random.default_rng(42)
    for level in (1, 2, 3, 7, 13, 21):
        side = 1 << level
        coords = rng.integers(0, side, size=(200, 3))
        keys = encode_cells(coords, level)
        assert (decode_cells(keys, level) == coords).all()


def test_injective_per_level_exhaustive():
    for level in (1, 2, 3):
        side = 1 << level
        grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), axis=-1)
        keys = encode_cells(grid.reshape(-1, 3), level)
        assert len(np.unique(keys)) == side**3


def test_sibling_keys_differ_in_low_bits():
    parent = np.array([2, 5, 1])
    octants = np.array([[dx, dy, dz] for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)])
    kids = encode_cells((parent << 1) + octants, 4)
    assert set((kids >> np.uint64(3)).tolist()) == {encode_one(parent, 3)}
    assert sorted((kids & np.uint64(7)).tolist()) == list(range(8))


def test_parent_drops_three_bits():
    coords = np.array([13, 6, 9])
    bits = encode_one(coords, 4)
    assert encode_one(coords >> 1, 3) == bits >> 3


def test_point_to_key_origin():
    for level in (0, 1, 5, 21):
        assert points_to_keys(np.zeros((1, 3)), level)[0] == 0


def test_point_to_key_halfopen_boundary():
    # 0.5 belongs to the upper cell under half-open intervals.
    keys = points_to_keys(np.array([[0.5, 0.5, 0.5]]), 1)
    assert decode_one(keys[0], 1) == (1, 1, 1)


@pytest.mark.parametrize("bad", [np.nan, -0.25, 1.0])
def test_point_outside_unit_cube_rejected(bad):
    with pytest.raises(ValueError, match="half-open"):
        points_to_keys(np.array([[0.5, bad, 0.5]]), 3)


def test_point_containment_random():
    rng = np.random.default_rng(7)
    pts = rng.random((10_000, 3))
    level = 5
    keys = points_to_keys(pts, level)
    cells = decode_cells(keys, level)
    w = 1.0 / (1 << level)
    lo = cells * w
    assert (pts >= lo).all() and (pts < lo + w).all()


def test_parent_of_child_property():
    rng = np.random.default_rng(3)
    pts = rng.random((500, 3))
    for level in (1, 4, 9, 21):
        fine = points_to_keys(pts, level)
        coarse = points_to_keys(pts, level - 1)
        assert (fine >> np.uint64(3) == coarse).all()


def test_level_limit_error():
    with pytest.raises(PrecisionLimitError):
        encode_cells(np.zeros((1, 3), dtype=np.int64), MAX_LEVEL + 1)
    with pytest.raises(PrecisionLimitError):
        decode_cells(np.zeros(1, dtype=np.uint64), MAX_LEVEL + 1)


def test_coordinate_range_validation():
    for cells in ([[2, 0, 0]], [[-1, 0, 0]], [[0, 0, 0], [0, 2, 0]]):
        with pytest.raises(ValueError):
            encode_cells(cells, 1)  # a Python list
        with pytest.raises(ValueError):
            encode_cells(np.array(cells, dtype=np.int64), 1)


def test_positions_outside_cube_rejected():
    with pytest.raises(ValueError):
        points_to_keys(np.array([[0.0, 0.0, 1.0]]), 3)

import numpy as np
import pytest

from h2fmm.errors import ConfigurationError
from h2fmm.geometry import (
    DistributionSpec,
    ParticleSet,
    _rng,
    generate,
    load_binary,
    load_csv,
    sample_plummer,
    sample_sphere_surface,
    save_binary,
    save_csv,
)


@pytest.mark.parametrize("kind", ["random-cube", "sphere-surface", "plummer"])
def test_containment_and_count(kind):
    ps = generate(DistributionSpec(kind, 2000, seed=11))
    assert len(ps) == 2000
    assert (ps.positions >= 0.0).all() and (ps.positions < 1.0).all()
    assert (ps.charges == 1.0).all()
    assert len(np.unique(ps.indices)) == 2000


def test_single_particle_random_cube():
    ps = generate(DistributionSpec("random-cube", 1, seed=0))
    assert ps.positions.shape == (1, 3)
    assert (ps.positions >= 0.0).all() and (ps.positions < 1.0).all()


@pytest.mark.parametrize("kind", ["random-cube", "sphere-surface", "plummer"])
def test_determinism_bit_identical(kind):
    a = generate(DistributionSpec(kind, 1500, seed=9))
    b = generate(DistributionSpec(kind, 1500, seed=9))
    assert a.positions.tobytes() == b.positions.tobytes()
    c = generate(DistributionSpec(kind, 1500, seed=10))
    assert a.positions.tobytes() != c.positions.tobytes()


def test_sphere_surface_unit_radius_before_normalization():
    raw = sample_sphere_surface(1000, _rng(7))
    radii = np.linalg.norm(raw, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12


def test_plummer_core_concentration_vs_uniform_ball_oracle():
    # Innermost tenth of the radius range must hold far more than the
    # uniform-in-ball mass of the same shell, and more than 10% overall.
    n = 4096
    raw = sample_plummer(n, _rng(1))
    radii = np.sort(np.linalg.norm(raw, axis=1))
    r_max = radii[-1]
    frac_plummer = np.searchsorted(radii, r_max / 10.0) / n
    rng = _rng(1)
    u = rng.random(n)
    uniform_radii = np.sort(r_max * u ** (1.0 / 3.0))
    frac_uniform = np.searchsorted(uniform_radii, r_max / 10.0) / n
    assert frac_plummer > 0.10
    assert frac_plummer > 3.0 * frac_uniform


def test_plummer_density_decreases_with_radius():
    raw = sample_plummer(8192, _rng(5))
    radii = np.linalg.norm(raw, axis=1)
    hist, edges = np.histogram(radii, bins=np.linspace(0.0, 2.0, 9))
    shells = (4.0 / 3.0) * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    density = hist / shells
    assert (np.diff(density) < 0).all()


def test_unsupported_kind_is_configuration_error():
    with pytest.raises(ConfigurationError):
        DistributionSpec("gaussian-blob", 10, seed=0)


def test_empty_count_rejected():
    with pytest.raises(ConfigurationError):
        DistributionSpec("plummer", 0, seed=0)


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="seed"):
        DistributionSpec("plummer", 10, seed=-1)


def test_csv_roundtrip_exact(tmp_path):
    ps = generate(DistributionSpec("plummer", 257, seed=3))
    path = tmp_path / "p.csv"
    with open(path, "w") as fh:
        save_csv(ps, fh)
    header = path.read_text().splitlines()[0]
    assert header == "index,x,y,z,charge"
    back = load_csv(path)
    assert np.array_equal(back.positions, ps.positions)
    assert np.array_equal(back.indices, ps.indices)
    assert np.array_equal(back.charges, ps.charges)


def test_binary_roundtrip_exact(tmp_path):
    ps = generate(DistributionSpec("sphere-surface", 123, seed=8))
    path = tmp_path / "p.bin"
    save_binary(ps, path)
    assert path.stat().st_size == 8 + 40 * 123
    back = load_binary(path)
    assert np.array_equal(back.positions, ps.positions)
    assert np.array_equal(back.indices, ps.indices)
    assert np.array_equal(back.charges, ps.charges)


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((3, 3)), indices=np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((2, 3)), charges=np.ones(3))


HEADER = "index,x,y,z,charge\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(HEADER + "0,0.1,0.2,abc,1.0\n", id="not-a-number"),
        pytest.param(HEADER + "0,0.1,0.2,0.3,1.0\n1,0.1,0.2,0.3\n", id="short-row"),
        pytest.param("index,x,y,charge\n0,0.1,0.2,1.0\n", id="missing-column"),
        pytest.param(HEADER, id="no-particles"),
        pytest.param(HEADER + "0,0.1,nan,0.3,1.0\n", id="nan-position"),
        pytest.param(HEADER + "0,0.1,0.2,1.5,1.0\n", id="position-outside-cube"),
        pytest.param(HEADER + "0,0.1,0.2,0.3,inf\n", id="infinite-charge"),
        pytest.param(HEADER + "0,0.1,0.2,0.3,1.0\n0,0.4,0.2,0.3,1.0\n", id="repeated-index"),
    ],
)
def test_malformed_csv_rejected(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError):
        load_csv(path)


def test_csv_columns_in_any_order(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("x,charge,z,index,y\n0.25,2.0,0.75,7,0.5\n")
    ps = load_csv(path)
    assert ps.positions.tolist() == [[0.25, 0.5, 0.75]]
    assert ps.indices.tolist() == [7] and ps.charges.tolist() == [2.0]


@pytest.mark.parametrize("loader", [load_csv, load_binary])
def test_missing_particle_file_rejected(tmp_path, loader):
    with pytest.raises(ConfigurationError):
        loader(tmp_path / "absent")


@pytest.mark.parametrize("cut", ["short-header", "short-count", "trailing"])
def test_binary_length_must_match_count(tmp_path, cut):
    path = tmp_path / "p.bin"
    save_binary(generate(DistributionSpec("plummer", 10, seed=1)), path)
    raw = path.read_bytes()
    path.write_bytes({"short-header": raw[:5], "short-count": raw[:-40], "trailing": raw + b"\0"}[cut])
    with pytest.raises(ConfigurationError):
        load_binary(path)

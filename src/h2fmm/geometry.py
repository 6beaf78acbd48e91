"""Particle distributions on the unit cube, plus CSV / binary serialization.

All generators are driven by numpy's PCG64 generator, so a given
(kind, n, seed) triple reproduces the same particle set bit for bit on
any platform.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

DISTRIBUTION_KINDS = ("random-cube", "sphere-surface", "plummer")

# Plummer model with unit softening radius, truncated at radius 10.
PLUMMER_CUTOFF_RADIUS = 10.0

_RECORD_DTYPE = np.dtype(
    [("index", "<i8"), ("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("charge", "<f8")]
)


@dataclass(frozen=True)
class DistributionSpec:
    """Recipe for a reproducible particle set."""

    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ConfigurationError(
                f"unsupported distribution kind {self.kind!r}; "
                f"expected one of {DISTRIBUTION_KINDS}"
            )
        if self.n < 1:
            raise ConfigurationError(f"particle count must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ParticleSet:
    """Particles as a structure of arrays.

    positions are (n, 3) float64 coordinates in [0, 1)^3, indices are
    unique int64 identifiers, charges are per-particle source strengths.
    """

    positions: np.ndarray
    indices: np.ndarray = field(default=None)
    charges: np.ndarray = field(default=None)

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        n = len(self.positions)
        if self.indices is None:
            self.indices = np.arange(n, dtype=np.int64)
        else:
            self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.charges is None:
            self.charges = np.ones(n, dtype=np.float64)
        else:
            self.charges = np.asarray(self.charges, dtype=np.float64)
        if len(self.indices) != n or len(self.charges) != n:
            raise ValueError("positions, indices and charges must have equal length")
        ids = np.sort(self.indices)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("particle indices must be unique")

    def __len__(self) -> int:
        return len(self.positions)

    def take(self, order) -> "ParticleSet":
        return ParticleSet(self.positions[order], self.indices[order], self.charges[order])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def sample_sphere_surface(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points uniformly distributed on the unit sphere about the origin."""
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1)
    # A zero draw has probability zero but would poison the division.
    norms[norms == 0.0] = 1.0
    return v / norms[:, None]


def _plummer_mass(r):
    return r**3 * (1.0 + r**2) ** -1.5


def sample_plummer(n: int, rng: np.random.Generator) -> np.ndarray:
    """Points from the Plummer (unit softening radius) density about the origin.

    Radii come from inverting the enclosed-mass fraction restricted to
    [0, PLUMMER_CUTOFF_RADIUS], so the draw is truncated without any
    rejection loop and stays deterministic in the generator state.
    """
    m = rng.random(n) * _plummer_mass(PLUMMER_CUTOFF_RADIUS)
    t = m ** (2.0 / 3.0)
    r = np.sqrt(t / (1.0 - t))
    return sample_sphere_surface(n, rng) * r[:, None]


def _normalize_to_unit_cube(points: np.ndarray) -> np.ndarray:
    """Rescale per axis so the bounding box fills the half-open unit cube."""
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span == 0.0] = 1.0
    scaled = (points - lo) / span
    return np.minimum(scaled, np.nextafter(1.0, 0.0))


def generate(spec: DistributionSpec) -> ParticleSet:
    """Draw the particle set described by ``spec``.

    Parameters
    ----------
    spec : DistributionSpec

    Returns
    -------
    ParticleSet
        ``spec.n`` particles with positions in [0, 1)^3, indices 0..n-1
        and unit charges.
    """
    rng = _rng(spec.seed)
    if spec.kind == "random-cube":
        positions = rng.random((spec.n, 3))
    elif spec.kind == "sphere-surface":
        positions = _normalize_to_unit_cube(sample_sphere_surface(spec.n, rng))
    elif spec.kind == "plummer":
        positions = _normalize_to_unit_cube(sample_plummer(spec.n, rng))
    else:  # pragma: no cover - guarded by DistributionSpec
        raise ConfigurationError(f"unsupported distribution kind {spec.kind!r}")
    return ParticleSet(positions)


def save_csv(particles: ParticleSet, fh) -> None:
    """Write particles to the text stream ``fh`` as CSV with header
    ``index,x,y,z,charge``; floats use repr, so a read-back is exact."""
    fh.write("index,x,y,z,charge\n")
    for i in range(len(particles)):
        x, y, z = (float(v) for v in particles.positions[i])
        fh.write(
            f"{int(particles.indices[i])},{x!r},{y!r},{z!r},{float(particles.charges[i])!r}\n"
        )


def _from_records(path, records) -> ParticleSet:
    """Particles of a loaded file, or ConfigurationError if they are unusable."""
    positions = np.column_stack([records["x"], records["y"], records["z"]])
    if not len(records):
        raise ConfigurationError(f"particle file {path} holds no particles")
    if not ((positions >= 0.0) & (positions < 1.0)).all():
        raise ConfigurationError(f"particle file {path}: positions must lie in [0,1)^3")
    if not np.isfinite(records["charge"]).all():
        raise ConfigurationError(f"particle file {path} holds a non-finite charge")
    try:
        return ParticleSet(positions, records["index"].astype(np.int64), records["charge"].copy())
    except ValueError as exc:
        raise ConfigurationError(f"particle file {path}: {exc}") from None


def load_csv(path) -> ParticleSet:
    """Read particles written by ``save_csv``; columns may come in any order.

    A missing file, another set of columns, a short row, a field that is
    not a number or an unusable particle raises ConfigurationError.
    """
    try:
        with open(path) as fh:
            names = fh.readline().strip().split(",")
            if sorted(names) != sorted(_RECORD_DTYPE.names):
                raise ValueError("the header must name the columns index,x,y,z,charge")
            dtype = np.dtype([(name, _RECORD_DTYPE[name]) for name in names])
            with warnings.catch_warnings():  # no rows: rejected below
                warnings.simplefilter("ignore")
                records = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read particle file {path}: {exc}") from None
    return _from_records(path, records)


def save_binary(particles: ParticleSet, path) -> None:
    """Write the length-prefixed little-endian record format.

    Layout: u64 particle count, then count records of
    (i64 index, f64 x, f64 y, f64 z, f64 charge), all little-endian.
    """
    records = np.empty(len(particles), dtype=_RECORD_DTYPE)
    records["index"] = particles.indices
    records["x"], records["y"], records["z"] = particles.positions.T
    records["charge"] = particles.charges
    with open(path, "wb") as fh:
        fh.write(np.uint64(len(particles)).astype("<u8").tobytes())
        fh.write(records.tobytes())


def load_binary(path) -> ParticleSet:
    """Read the format of ``save_binary``: the file must be 8 + 40 * count bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read particle file {path}: {exc}") from None
    count = int(np.frombuffer(raw[:8], dtype="<u8")[0]) if len(raw) >= 8 else -1
    if len(raw) != 8 + _RECORD_DTYPE.itemsize * count:
        raise ConfigurationError(
            f"particle file {path} is {len(raw)} bytes; a binary particle file "
            f"is an 8-byte count then {_RECORD_DTYPE.itemsize} bytes per particle"
        )
    return _from_records(path, np.frombuffer(raw, dtype=_RECORD_DTYPE, offset=8))

import numpy as np
import pytest

from h2fmm.errors import ConfigurationError
from h2fmm.geometry import DistributionSpec, ParticleSet, generate
from h2fmm.kernels import KernelSpec, kernel_block


def test_one_kernel_all_ones():
    ps = generate(DistributionSpec("random-cube", 50, seed=0))
    a = kernel_block(KernelSpec("one"), ps.positions, ps.positions)
    assert np.array_equal(a, np.ones((50, 50)))


def test_laplace3d_inverse_distance():
    ps = ParticleSet(np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.6]]))
    a = kernel_block(KernelSpec("laplace3d"), ps.positions, ps.positions)
    assert a[0, 1] == pytest.approx(2.0, abs=1e-14)  # 1/r at r = 0.5
    assert np.isinf(a[0, 0])


def test_off_diagonal_half_at_distance_two():
    pts_a = np.array([[0.0, 0.0, 0.0]])
    pts_b = np.array([[2.0, 0.0, 0.0]])
    val = kernel_block(KernelSpec("laplace3d"), pts_a, pts_b)
    assert val[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_regularized_diagonal():
    ps = ParticleSet(np.array([[0.5, 0.5, 0.5]]))
    a = kernel_block(KernelSpec("laplace3d", regularization=0.25), ps.positions, ps.positions)
    assert a[0, 0] == pytest.approx(4.0, rel=1e-14)


def test_laplace2d_log():
    pts = np.array([[0.0, 0.0, 0.0]])
    other = np.array([[0.3, 0.0, 0.0]])
    val = kernel_block(KernelSpec("laplace2d"), pts, other)
    assert val[0, 0] == pytest.approx(-np.log(0.3), rel=1e-13)


def test_gaussian_symmetric_to_machine_precision():
    ps = generate(DistributionSpec("random-cube", 64, seed=2))
    a = kernel_block(KernelSpec("gaussian", sigma=1.0), ps.positions, ps.positions)
    assert np.abs(a - a.T).max() < 1e-15
    assert a[3, 3] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["laplace3d", "laplace2d", "gaussian", "one"])
def test_batched_blocks_match_one_by_one(kind):
    spec = KernelSpec(kind, regularization=1e-2, sigma=0.5)
    rng = np.random.default_rng(3)
    a, b = rng.random((4, 5, 3)), rng.random((4, 7, 3))
    batched = kernel_block(spec, a, b)
    assert batched.shape == (4, 5, 7)
    for t in range(4):
        np.testing.assert_allclose(batched[t], kernel_block(spec, a[t], b[t]), rtol=1e-13)


def test_unknown_kernel_kind():
    with pytest.raises(ConfigurationError):
        KernelSpec("helmholtz")
    with pytest.raises(ConfigurationError):
        KernelSpec("gaussian", sigma=0.0)
    with pytest.raises(ConfigurationError):
        KernelSpec("gaussian", sigma=1e-300)  # its square, which the kernel divides by, is 0
    with pytest.raises(ConfigurationError):
        KernelSpec("laplace3d", regularization=-1.0)


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), float("-inf"), 1e200, -1e200, pytest.param(10**400, id="10**400"),
     True, False, "0.01", None],
)
def test_non_finite_kernel_parameters_rejected(bad):
    # A bool, a string or None is not a real number; the square of 1e200
    # or 10**400, which the kernels use, is infinite.
    with pytest.raises(ConfigurationError, match="finite"):
        KernelSpec("laplace3d", regularization=bad)
    with pytest.raises(ConfigurationError, match="finite"):
        KernelSpec("gaussian", sigma=bad)
    with pytest.raises(ConfigurationError, match="finite"):
        KernelSpec("laplace3d", regularization=1e-2, sigma=bad)

import numpy as np
import pytest

from qfilter import linalg


def random_hermitian(n, rng):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def random_psd(n, rng):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G @ G.conj().T


class TestHermitianEig:
    def test_diagonal_input(self):
        w, U = linalg.hermitian_eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.abs(np.abs(U) - np.eye(3)).max() < 1e-12  # permutation of identity

    def test_pauli_x(self):
        w, _ = linalg.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            H = random_hermitian(5, rng)
            w, U = linalg.hermitian_eig(H)
            rebuilt = (U * w) @ U.conj().T
            rel = np.linalg.norm(rebuilt - H) / np.linalg.norm(H)
            assert rel < 1e-12
            assert np.abs(U.conj().T @ U - np.eye(5)).max() < 1e-12

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(2)
        w, _ = linalg.hermitian_eig(random_hermitian(6, rng))
        assert (np.diff(w) >= 0).all()

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.hermitian_eig(np.zeros((2, 3)))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(linalg.psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        root = linalg.psd_sqrt(np.diag([4.0, 9.0, 0.0]))
        assert np.abs(root - np.diag([2.0, 3.0, 0.0])).max() < 1e-12

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            A = random_psd(n, rng)
            root = linalg.psd_sqrt(A)
            assert linalg.asymmetry(root) < 1e-10
            assert np.linalg.norm(root @ root - A) < 1e-10

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            linalg.psd_sqrt(np.diag([1.0, -1e-6]))

    def test_clamps_tiny_negative(self):
        root = linalg.psd_sqrt(np.diag([1.0, -5e-11]))
        assert np.abs(root - np.diag([1.0, 0.0])).max() < 1e-5


class TestTraceAbs:
    def test_paper_difference_matrix(self):
        # the 3-level counter-example has tr|sigma - rho| = 1
        assert abs(linalg.trace_abs(np.diag([-0.5, 0.0, 0.5])) - 1.0) < 1e-15

    def test_zero_matrix(self):
        assert linalg.trace_abs(np.zeros((3, 3))) == 0.0

    def test_equals_trace_for_psd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = random_psd(4, rng)
            assert abs(linalg.trace_abs(A) - np.trace(A).real) < 1e-10

    def test_density_matrix_gives_one(self):
        rng = np.random.default_rng(5)
        A = random_psd(3, rng)
        A /= np.trace(A).real
        assert abs(linalg.trace_abs(A) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.trace_abs(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_psd_sqrt_property_battery():
    # 1000 random PSD matrices across n in {2..8}
    rng = np.random.default_rng(8)
    for i in range(1000):
        n = 2 + i % 7
        A = random_psd(n, rng)
        root = linalg.psd_sqrt(A)
        assert np.linalg.norm(root @ root - A) < 1e-10

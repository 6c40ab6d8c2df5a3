import numpy as np
import pytest

from qmeasure.errors import DimensionMismatch, HermiticityViolation, StateValidationError
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    commutator_bound,
    expectation_and_variance,
    jordan_product,
    max_norm,
    partial_trace,
    spectral_decompose,
    tensor_product,
)
from qmeasure.scenario import _rng, random_density, random_hermitian


class TestConstruction:
    def test_symmetrization_below_gate(self):
        m = np.array([[1.0, 0.5 + 1e-11j], [0.5, 0.0]])
        h = HermitianOperator(m)
        assert max_norm(h.matrix - h.matrix.conj().T) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(StateValidationError):
            HermitianOperator(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_density_clips_tiny_negative_eigenvalue(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        rho = DensityOperator(m)
        assert np.linalg.eigvalsh(rho.matrix).min() >= 0.0
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-14

    def test_density_rejects_genuinely_negative(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(StateValidationError):
            DensityOperator(m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(StateValidationError):
            DensityOperator(np.eye(2))

    def test_density_is_a_hermitian_operator(self):
        rho = DensityOperator(np.array([[0.8, 0.4j], [-0.4j, 0.2]]))
        assert isinstance(rho, HermitianOperator)
        assert rho.dim == 2
        assert spectral_decompose(rho).eigenvalues == pytest.approx([1.0, 0.0], abs=1e-12)


class TestJordanProduct:
    def test_identity_absorbs(self, sx):
        ident = HermitianOperator(np.eye(2))
        assert np.allclose(jordan_product(ident, sx).matrix, SIGMA_X)

    def test_anticommuting_paulis(self, sx, sy):
        assert max_norm(jordan_product(sx, sy).matrix) < 1e-15

    def test_pauli_squares_to_identity(self, sx):
        assert np.allclose(jordan_product(sx, sx).matrix, np.eye(2))

    def test_symmetry_random(self):
        rng = _rng(11)
        for _ in range(50):
            a = random_hermitian(3, rng)
            b = random_hermitian(3, rng)
            assert np.array_equal(jordan_product(a, b).matrix, jordan_product(b, a).matrix)

    def test_dimension_mismatch(self, sx):
        with pytest.raises(DimensionMismatch):
            jordan_product(sx, HermitianOperator(np.eye(3)))


class TestCommutatorBound:
    def test_pauli_algebra(self, sx, sy, ket0):
        assert commutator_bound(sx, sy, ket0) == pytest.approx(1.0, abs=1e-14)

    def test_commuting(self, sz, ket0):
        assert commutator_bound(sz, sz, ket0) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self, sx, sy, max_mixed):
        assert commutator_bound(sx, sy, max_mixed) == pytest.approx(0.0, abs=1e-14)


class TestExpectationAndVariance:
    def test_eigenstate(self, sz, ket0):
        assert expectation_and_variance(sz, ket0) == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_superposition(self, sx, ket0):
        mean, var = expectation_and_variance(sx, ket0)
        assert mean == pytest.approx(0.0, abs=1e-14)
        assert var == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self, sz, max_mixed):
        assert expectation_and_variance(sz, max_mixed) == pytest.approx((0.0, 1.0), abs=1e-14)


class TestSpectralDecompose:
    def test_sigma_z(self, sz):
        spec = spectral_decompose(sz)
        assert np.allclose(spec.eigenvalues, [1.0, -1.0])
        assert np.allclose(spec.projectors[0].matrix, np.diag([1.0, 0.0]))
        assert np.allclose(spec.projectors[1].matrix, np.diag([0.0, 1.0]))

    def test_spectrum_is_computed_once_per_operator(self, sz):
        assert spectral_decompose(sz) is spectral_decompose(sz)

    def test_full_degeneracy_merges(self):
        spec = spectral_decompose(HermitianOperator(np.eye(3)))
        assert len(spec.branches) == 1
        assert np.allclose(spec.projectors[0].matrix, np.eye(3))

    def test_random_reconstruction(self):
        rng = _rng(5)
        for _ in range(20):
            a = random_hermitian(4, rng)
            spec = spectral_decompose(a)
            resum = sum(ev * p.matrix for ev, p in spec.branches)
            assert max_norm(resum - a.matrix) < 1e-9

    def test_projector_completeness_and_orthogonality(self):
        rng = _rng(6)
        for _ in range(20):
            spec = spectral_decompose(random_hermitian(3, rng))
            total = sum(p.matrix for p in spec.projectors)
            assert max_norm(total - np.eye(3)) < 1e-9
            for p in spec.projectors:
                assert max_norm(p.matrix @ p.matrix - p.matrix) < 1e-9


class TestTensorAndPartialTrace:
    def test_identity_kron(self):
        assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_system_factor_first(self):
        assert np.allclose(np.diag(tensor_product(SIGMA_Z, np.eye(2))), [1, 1, -1, -1])

    def test_projector_placement(self):
        p = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(np.diag(p), [0, 1, 0, 0])

    def test_product_state_recovery(self):
        rng = _rng(8)
        rho = random_density(2, rng).matrix
        sigma = random_density(3, rng).matrix
        joint = tensor_product(rho, sigma)
        assert max_norm(partial_trace(joint, (2, 3), "system") - rho) < 1e-12
        assert max_norm(partial_trace(joint, (2, 3), "detector") - sigma) < 1e-12

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        assert max_norm(partial_trace(proj, (2, 2), "system") - np.eye(2) / 2) < 1e-12

    def test_trace_preserving(self):
        rng = _rng(9)
        x = random_hermitian(6, rng).matrix
        assert np.trace(partial_trace(x, (2, 3), "system")) == pytest.approx(
            np.real(np.trace(x)), abs=1e-12
        )

    def test_bad_factorization(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(5), (2, 3), "system")


class TestUncertaintyProperties:
    """Preparation-uncertainty relations as bulk property tests."""

    def test_heisenberg_and_schrodinger(self):
        rng = _rng(13)
        for dim in (2, 3, 4):
            for _ in range(350):
                a = random_hermitian(dim, rng)
                b = random_hermitian(dim, rng)
                rho = random_density(dim, rng)
                _, var_a = expectation_and_variance(a, rho)
                _, var_b = expectation_and_variance(b, rho)
                c = commutator_bound(a, b, rho)
                assert var_a * var_b >= c**2 - 1e-10
                mean_a, _ = expectation_and_variance(a, rho)
                mean_b, _ = expectation_and_variance(b, rho)
                cov = (
                    np.real(np.trace(jordan_product(a, b).matrix @ rho.matrix))
                    - mean_a * mean_b
                )
                assert var_a * var_b >= cov**2 + c**2 - 1e-10

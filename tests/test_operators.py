import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qmeasure
from qmeasure import operators
from qmeasure.errors import (
    DimensionMismatch,
    HermiticityViolation,
    InternalNumericError,
    StateValidationError,
)
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    clip_at_floor,
    commutator_bound,
    cross_check,
    expectation,
    expectation_and_variance,
    hermitian_part,
    jordan_product,
    max_norm,
    spectra,
    spectral_decompose,
    tensor_product,
    validated_states,
)
from qmeasure.scenario import _rng, random_density, random_hermitian, random_unitary
from qmeasure.tolerances import CROSS_CHECK_TOL, ROUNDOFF_FLOOR


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

    def test_rejects_a_hermitian_part_beyond_the_float_range(self):
        # Finite entries whose (M + M†)/2 overflows: the sum M + M† reads inf.
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StateValidationError, match="overflows"):
            HermitianOperator(np.diag([1e308, -1e308]))

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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteGates:
    # (1e160 sigma_z)^2 overflows: numpy warns, and the gates must raise.
    BIG = 1e160 * SIGMA_Z

    def test_hermitian_part_rejects_overflow(self):
        with pytest.raises(StateValidationError, match="matrix entries must be finite"):
            hermitian_part(self.BIG @ self.BIG)

    def test_validated_states_rejects_nan(self):
        # Normalizing the overflowed square divides inf by inf.
        sq = self.BIG @ self.BIG
        with pytest.raises(StateValidationError):
            validated_states((sq / np.trace(sq))[None])

    def test_clip_at_floor_rejects_nan(self):
        # The variance of the overflowed operator in a diagonal state: inf - inf.
        mean = np.real(np.trace(self.BIG @ np.diag([0.75, 0.25])))
        second = np.real(np.trace(self.BIG @ self.BIG @ np.diag([0.75, 0.25])))
        with pytest.raises(InternalNumericError):
            clip_at_floor(float(second - mean * mean), ROUNDOFF_FLOOR, "variance")

    @pytest.mark.parametrize("rho", [np.diag([0.75, 0.25]), np.eye(2) / 2], ids=["biased", "unbiased"])
    def test_expectation_and_variance_floors_the_overflowed_square(self, rho):
        # Its traces are its own, so the NaN variance reaches the floor, not an operand gate.
        with pytest.raises(InternalNumericError, match="^variance nan"):
            expectation_and_variance(self.BIG, rho)

    def test_expectation_and_variance_rejects_an_infinite_second_moment(self):
        # A = lam (|u><u| - |v><v|) has finite entries and a finite square, but
        # Tr(A^2 rho) = lam^2 overflows to +inf while <A> = 0 in rho = (|u><u| + |v><v|)/2.
        u, v = np.ones(4) / 2, np.array([1, -1, 1, -1]) / 2
        a = 1.5e154 * (np.outer(u, u) - np.outer(v, v))
        with pytest.raises(InternalNumericError, match="^variance inf overflows"):
            expectation_and_variance(a, (np.outer(u, u) + np.outer(v, v)) / 2)


class TestCrossCheck:
    def test_agreement_passes(self):
        cross_check("dispersion", eigen=1.0, contextual=1.0 + CROSS_CHECK_TOL / 2)

    def test_mismatch_names_both_sides(self):
        with pytest.raises(InternalNumericError, match=r"^epsilon\^2 mismatch: direct 1\.0 vs quasi 2\.0$"):
            cross_check("epsilon^2", direct=1.0, quasi=2.0)

    def test_nan_fails(self):
        with pytest.raises(InternalNumericError, match="eta\\^2 mismatch: system nan vs joint 0.0"):
            cross_check("eta^2", system=float("nan"), joint=0.0)


class TestJordanProduct:
    def test_identity_absorbs(self, sx):
        ident = HermitianOperator(np.eye(2))
        assert np.allclose(jordan_product(ident, sx), SIGMA_X)

    def test_anticommuting_paulis(self, sx, sy):
        assert max_norm(jordan_product(sx, sy)) < 1e-15

    def test_pauli_squares_to_identity(self, sx):
        assert np.allclose(jordan_product(sx, sx), np.eye(2))

    def test_symmetry_random(self):
        rng = _rng(11)
        for _ in range(50):
            a = random_hermitian(3, rng)
            b = random_hermitian(3, rng)
            assert np.array_equal(jordan_product(a, b), jordan_product(b, a))

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
        assert len(spec.eigenvalues) == 1
        assert np.allclose(spec.projectors[0].matrix, np.eye(3))

    def test_random_reconstruction(self):
        rng = _rng(5)
        for _ in range(20):
            a = random_hermitian(4, rng)
            spec = spectral_decompose(a)
            resum = sum(ev * p.matrix for ev, p in zip(spec.eigenvalues, spec.projectors))
            assert max_norm(resum - a.matrix) < 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_a_stack_has_the_bits_of_grouping_one_by_one(self, dim):
        # Ungrouped operators take their branches from the stack, grouped ones
        # (one fully degenerate, one with a repeated eigenvalue) from _branches;
        # every operator matches _branches on its own sorted eigh.
        rng = _rng((7, dim))
        u = random_unitary(dim, rng)
        degenerate = np.linspace(1.0, -1.0, dim)
        degenerate[1] = degenerate[0]
        ops = [random_hermitian(dim, rng) for _ in range(5)]
        ops[1:1] = [HermitianOperator(np.eye(dim)), HermitianOperator((u * degenerate) @ u.conj().T)]
        for op, spec in zip(ops, spectra(ops)):
            w, v = np.linalg.eigh(op.matrix)
            values, projectors = operators._branches(w[::-1], v[:, ::-1])
            assert np.array_equal(spec.eigenvalues, values)
            assert np.array_equal(spec.projector_stack, hermitian_part(projectors))
        assert [len(op.spectrum.eigenvalues) for op in ops[:3]] == [dim, 1, dim - 1]

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
                    np.real(np.trace(jordan_product(a, b) @ rho.matrix))
                    - mean_a * mean_b
                )
                assert var_a * var_b >= cov**2 + c**2 - 1e-10


class TestStacking:
    """``expectation``, ``jordan_product`` and ``commutator_bound`` on broadcasting
    stacks give, entry by entry, the bits of their per-pair calls."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_outer_stacks(self, dim):
        rng = _rng(41 + dim)
        xs = np.array([random_hermitian(dim, rng).matrix for _ in range(3)])
        ys = np.array([random_hermitian(dim, rng).matrix for _ in range(4)])
        rhos = np.array([random_density(dim, rng).matrix for _ in range(4)])
        jordan = jordan_product(xs[:, None], ys[None])
        assert np.array_equal(jordan, [[jordan_product(x, y) for y in ys] for x in xs])
        expect = expectation(xs[:, None], rhos[None])
        assert np.array_equal(expect, [[expectation(x, rho) for rho in rhos] for x in xs])
        assert expect.flags.c_contiguous

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stack_against_one_matrix(self, dim):
        rng = _rng(51 + dim)
        xs = np.array([random_hermitian(dim, rng).matrix for _ in range(5)])
        y = random_hermitian(dim, rng)
        rho = random_density(dim, rng)
        jordan = jordan_product(xs, y)
        assert np.array_equal(jordan, [jordan_product(x, y) for x in xs])
        for stack in (expectation(xs, rho), expectation(rho, xs)):
            assert stack.flags.c_contiguous
        assert np.array_equal(expectation(xs, rho), [expectation(x, rho) for x in xs])
        assert np.array_equal(expectation(rho, xs), [expectation(rho, x) for x in xs])

    def test_leading_axes_must_broadcast(self):
        with pytest.raises(DimensionMismatch):
            expectation(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))
        with pytest.raises(DimensionMismatch):
            jordan_product(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))

    def test_one_pair_gives_a_float(self, sx, ket0):
        assert type(expectation(sx, ket0)) is float
        assert type(commutator_bound(sx, SIGMA_Y, ket0)) is float

    def test_commutator_bound_of_a_state_stack(self, sx, sy, ket0, max_mixed):
        bound = commutator_bound(sx, sy, np.array([ket0.matrix, max_mixed.matrix]))
        assert bound.flags.c_contiguous
        assert bound.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_commutator_bound_of_broadcasting_stacks(self, dim):
        rng = _rng(61 + dim)
        xs = np.array([random_hermitian(dim, rng).matrix for _ in range(3)])
        y = random_hermitian(dim, rng)
        rhos = np.array([random_density(dim, rng).matrix for _ in range(4)])
        bound = commutator_bound(xs[:, None], y, rhos[None])
        assert bound.shape == (3, 4) and bound.flags.c_contiguous
        assert np.array_equal(bound, [[commutator_bound(x, y, rho) for rho in rhos] for x in xs])


class TestClipAtFloor:
    def test_array_clips_round_off(self):
        out = clip_at_floor(np.array([[0.5, -1e-13], [0.0, 2.0]]), ROUNDOFF_FLOOR, "variance")
        assert out.tolist() == [[0.5, 0.0], [0.0, 2.0]]

    def test_negative_zero_maps_as_max_does(self):
        # max(-0.0, 0.0) is -0.0, where np.maximum would give +0.0.
        assert np.signbit(clip_at_floor(-0.0, ROUNDOFF_FLOOR, "variance"))
        assert np.signbit(clip_at_floor(np.array([1.0, -0.0]), ROUNDOFF_FLOOR, "variance")).tolist() == [False, True]

    @pytest.mark.parametrize("bad", [np.nan, -1e-6, np.inf])
    def test_array_names_the_first_offending_index(self, bad):
        values = np.array([[0.25, 0.5, 0.0], [1.0, bad, -1.0]])
        with pytest.raises(InternalNumericError, match=r"at index \(1, 1\)"):
            clip_at_floor(values, ROUNDOFF_FLOOR, "variance")

    def test_float_stays_a_float(self):
        assert type(clip_at_floor(0.25, ROUNDOFF_FLOOR, "variance")) is float
        with pytest.raises(InternalNumericError, match=r"^variance -1.000e-06 below"):
            clip_at_floor(-1e-6, ROUNDOFF_FLOOR, "variance")
        with pytest.raises(InternalNumericError, match=r"^variance inf overflows"):
            clip_at_floor(np.inf, ROUNDOFF_FLOOR, "variance")


# np.trace may take a matrix product only in the one owner of Re Tr(X rho), in
# the commutator's |Tr| and in the one owner of the mean and variance, which keeps
# its own traces so that an overflowed A^2 reaches its floor.
TRACE_OWNERS = Counter(
    {
        ("operators.py", "expectation"): 1,
        ("operators.py", "commutator_bound"): 1,
        ("operators.py", "expectation_and_variance"): 1,
    }
)


def _traces_of_products(tree: ast.AST) -> list[str]:
    """The enclosing function of each ``np.trace(...)`` or ``(...).trace()`` whose
    operand contains an ``@`` product."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "trace":
            operand = node.args[0] if node.args else node.func.value
            if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult) for n in ast.walk(operand)):
                owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return owners


def test_one_owner_of_the_trace_of_a_product():
    found = Counter()
    for path in sorted(Path(qmeasure.__file__).parent.glob("*.py")):
        for owner in _traces_of_products(ast.parse(path.read_text(encoding="utf-8"))):
            found[(path.name, owner)] += 1
    assert found == TRACE_OWNERS

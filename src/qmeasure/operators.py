"""Dense complex linear algebra for Hermitian operators and density operators.

All dimensions of interest are small (system ⊗ detector ⊗ probe, at most a
few dozen), so everything is stored as dense ``numpy`` arrays.  Values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    HermiticityViolation,
    InternalNumericError,
    StateValidationError,
)
from .tolerances import CROSS_CHECK_TOL, EIGENVALUE_FLOOR, GROUP_TOL, IDENTITY_TOL, ROUNDOFF_FLOOR, TRACE_TOL

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_complex_matrix(entries, square: bool = False) -> np.ndarray:
    """Coerce ``entries`` to a finite complex 2-D array (read-only)."""
    m = np.array(entries, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise StateValidationError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-abs norm, the gate norm used throughout."""
    return float(np.max(np.abs(m))) if m.size else 0.0


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix, symmetrized to (M + M†)/2 at construction.

    Construction rejects inputs whose anti-Hermitian part exceeds
    ``IDENTITY_TOL`` in max-norm; smaller deviations (file round-trips)
    are silently symmetrized away.
    """

    matrix: np.ndarray

    def __post_init__(self):
        sym = hermitian_part(as_complex_matrix(self.matrix, square=True))
        sym.setflags(write=False)
        object.__setattr__(self, "matrix", sym)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectrum(self) -> "SpectralDecomposition":
        """Eigen-branches, merging eigenvalues closer than GROUP_TOL * (1 + |λ|)."""
        try:
            evals, evecs = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise InternalNumericError(f"eigendecomposition failed: {exc}") from exc
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]

        branches: list[tuple[float, HermitianOperator]] = []
        i = 0
        n = len(evals)
        while i < n:
            j = i + 1
            while j < n and abs(evals[j] - evals[i]) <= GROUP_TOL * (1 + abs(evals[i])):
                j += 1
            vecs = evecs[:, i:j]
            proj = vecs @ vecs.conj().T
            branches.append((float(np.mean(evals[i:j])), HermitianOperator(proj)))
            i = j
        return SpectralDecomposition(tuple(branches))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


@dataclass(frozen=True)
class DensityOperator(HermitianOperator):
    """A Hermitian operator that is also positive-semidefinite with unit trace,
    gated by :func:`validated_states`."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "matrix", validated_states(self.matrix[None])[0])


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix or of each matrix of a stack ``(..., d, d)``.

    Raises StateValidationError on a non-finite entry, and HermiticityViolation
    if an anti-Hermitian part exceeds ``IDENTITY_TOL`` in max-norm; smaller
    ones are round-off.
    """
    if not np.isfinite(m).all():
        raise StateValidationError("matrix entries must be finite")
    mh = np.swapaxes(m, -1, -2).conj()
    defect = max_norm(m - mh)
    if defect > IDENTITY_TOL:
        raise HermiticityViolation(f"anti-Hermitian part has max-norm {defect:.3e} > {IDENTITY_TOL}")
    return (m + mh) / 2


def validated_states(m: np.ndarray) -> np.ndarray:
    """The density-operator gate on a stack ``(n, d, d)`` of Hermitian matrices.

    An eigenvalue below EIGENVALUE_FLOOR or NaN, or a trace off 1 by more
    than TRACE_TOL, raises StateValidationError.  A matrix with eigenvalues in
    [EIGENVALUE_FLOOR, 0) is rebuilt with them set to zero and renormalized,
    in a read-only copy of the stack; with nothing to clip, ``m`` is returned.
    """
    evals, evecs = np.linalg.eigh(m)
    low = evals.min(axis=-1)
    if not low.min() >= EIGENVALUE_FLOOR:
        raise StateValidationError(f"state has eigenvalue {low.min():.3e} < {EIGENVALUE_FLOOR}")
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise StateValidationError(f"state trace {float(tr[off][0])!r} differs from 1 by > {TRACE_TOL}")
    clip = low < 0.0
    if clip.any():
        vecs = evecs[clip]
        rebuilt = (vecs * np.clip(evals[clip], 0.0, None)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        rebuilt /= np.real(np.trace(rebuilt, axis1=-2, axis2=-1))[:, None, None]
        m = m.copy()
        m[clip] = hermitian_part(rebuilt)
        m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalue branches of a Hermitian operator with grouped projectors.

    ``branches`` is ordered by descending eigenvalue; eigenvalues closer
    than ``GROUP_TOL * (1 + |eigenvalue|)`` share one summed projector.
    """

    branches: tuple[tuple[float, HermitianOperator], ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([ev for ev, _ in self.branches])

    @property
    def projectors(self) -> list[HermitianOperator]:
        return [p for _, p in self.branches]

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """The projectors as one read-only stack ``(n_branches, d, d)``, in branch order."""
        stack = np.array([p.matrix for p in self.projectors])
        stack.setflags(write=False)
        return stack

    def labels(self, prefix: str) -> tuple[str, ...]:
        """Branch labels ``prefix0``, ``prefix1``, ... in branch order: ``a`` for
        the branches of A, ``b`` for B before the measurement, ``b'`` after it."""
        return tuple(f"{prefix}{i}" for i in range(len(self.branches)))


def _operands(*xs) -> list[np.ndarray]:
    """The matrices of a product's operands: a HermitianOperator gives its matrix,
    anything else must be a finite complex array with ndim >= 2.  The last two
    axes must be one square shape for all operands, and the leading axes must
    broadcast."""
    mats = [x.matrix if isinstance(x, HermitianOperator) else np.asarray(x, dtype=complex) for x in xs]
    if not all(np.isfinite(m).all() for m in mats):
        raise StateValidationError("matrix entries must be finite")
    shapes = {m.shape[-2:] for m in mats}
    if any(m.ndim < 2 for m in mats) or len(shapes) != 1 or mats[0].shape[-1] != mats[0].shape[-2]:
        raise DimensionMismatch(f"operands do not share one square shape: {[m.shape for m in mats]}")
    leading = {m.shape[:-2] for m in mats}
    if len(leading) > 1:
        try:
            np.broadcast_shapes(*leading)
        except ValueError:
            raise DimensionMismatch(f"leading axes do not broadcast: {[m.shape for m in mats]}") from None
    return mats


def jordan_product(a, b) -> np.ndarray:
    """Symmetric product (AB + BA)/2 of two matrices, or of each pair of two
    broadcasting stacks ``(..., d, d)``, gated by ``hermitian_part``."""
    am, bm = _operands(a, b)
    return hermitian_part((am @ bm + bm @ am) / 2)


def commutator_bound(a, b, rho):
    """Uncertainty bound C_AB = |<[A, B]> / 2i| in the state ``rho``, a float or,
    for stacks, an array like ``expectation``'s."""
    am, bm, rm = _operands(a, b, rho)
    t = np.abs(np.trace((am @ bm - bm @ am) @ rm, axis1=-2, axis2=-1)) / 2
    return float(t) if t.ndim == 0 else np.ascontiguousarray(t)


def expectation(x, rho):
    """Re Tr(X rho), the package's one Born-rule trace: a float for two matrices,
    and a C-contiguous float array for broadcasting stacks ``(..., d, d)``; each
    entry of a stack has the bits of its own call."""
    xm, rm = _operands(x, rho)
    t = np.real(np.trace(xm @ rm, axis1=-2, axis2=-1))
    # The real part is a strided view, and a dot product with it rounds differently.
    return float(t) if t.ndim == 0 else np.ascontiguousarray(t)


def expectation_and_variance(a: HermitianOperator, rho: DensityOperator) -> tuple[float, float]:
    """Mean Tr(A rho) and variance Tr(A^2 rho) - mean^2; round-off down to ROUNDOFF_FLOOR reads 0."""
    am, rm = _operands(a, rho)
    mean, second = expectation(np.array([am, am @ am]), rm).tolist()
    return mean, clip_at_floor(second - mean * mean, ROUNDOFF_FLOOR, "variance")


def value_variance(values: np.ndarray, probs: np.ndarray) -> float:
    """Variance v²·p - (v·p)² of values v under weights p; round-off down to ROUNDOFF_FLOOR reads 0."""
    var = float(values**2 @ probs - (values @ probs) ** 2)
    return clip_at_floor(var, ROUNDOFF_FLOOR, "variance")


def clip_at_floor(value, floor: float, what: str):
    """A quantity, float or array, that is nonnegative in exact arithmetic: round-off
    in [floor, 0) reads 0 (and -0.0 stays, as in ``max(v, 0.0)``), and a value below
    ``floor`` or NaN raises InternalNumericError naming its index."""
    x = np.asarray(value, dtype=float)
    bad = np.flatnonzero(~(x >= floor))
    if bad.size:
        at = f" at index {tuple(map(int, np.unravel_index(bad[0], x.shape)))}" if x.ndim else ""
        raise InternalNumericError(f"{what} {x.flat[bad[0]]:.3e}{at} below {floor}")
    x = np.where(x < 0.0, 0.0, x)
    return float(x) if x.ndim == 0 else x


def cross_check(what: str, **pair: float) -> None:
    """Gate two computations of one quantity, passed as keywords ``name=value``: a
    difference beyond CROSS_CHECK_TOL, or a NaN, raises InternalNumericError."""
    (x_name, x), (y_name, y) = pair.items()
    if not abs(x - y) <= CROSS_CHECK_TOL:
        raise InternalNumericError(f"{what} mismatch: {x_name} {x!r} vs {y_name} {y!r}")


def spectral_decompose(a: HermitianOperator) -> SpectralDecomposition:
    """Eigen-branches of ``a``, computed once per operator and kept on it."""
    return a.spectrum


def tensor_product(x, y) -> np.ndarray:
    """Kronecker product with the system factor first (A ⊗ 1 ordering)."""
    return np.kron(as_complex_matrix(x), as_complex_matrix(y))


def partial_trace(x, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of a (d_S * d_D)-dimensional matrix.

    Parameters
    ----------
    x : matrix of dimension d_S * d_D
    dims : (d_S, d_D)
    keep : "system" to trace out the detector, "detector" for the converse.
    """
    xm = as_complex_matrix(x)
    d_s, d_d = dims
    if xm.shape != (d_s * d_d, d_s * d_d):
        raise DimensionMismatch(
            f"matrix of shape {xm.shape} does not factor as ({d_s}, {d_d})"
        )
    x4 = xm.reshape(d_s, d_d, d_s, d_d)
    if keep == "system":
        return np.einsum("ikjk->ij", x4)
    if keep == "detector":
        return np.einsum("kikj->ij", x4)
    raise ValueError(f"keep must be 'system' or 'detector', got {keep!r}")

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
    if not np.isfinite(m).all():
        raise StateValidationError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    m.setflags(write=False)
    return m


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-abs norm, the gate norm used throughout."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def at_index(bad: np.ndarray) -> str:
    """" at index (i, ...)" of the first True of a mask over the leading axes of a
    stack, as ``clip_at_floor`` names it; "" for a single matrix or a stack of one."""
    if bad.size < 2:
        return ""
    return f" at index {tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))}"


def prebuilt(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from fields that already passed,
    as rows of a stack, the gates its constructor runs; they do not run again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
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
        return spectra([self])[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.matrix, dtype=dtype)


@dataclass(frozen=True, eq=False)
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
    ones are round-off.  On a stack, the error names the first failing matrix.
    """
    mh = np.swapaxes(m, -1, -2).conj()
    # One reduction when the gate passes: a non-finite entry makes the defect NaN or inf.
    defect = max_norm(m - mh)
    if not defect <= IDENTITY_TOL:
        if not np.isfinite(m).all():
            raise StateValidationError(f"matrix entries must be finite{at_index(~np.isfinite(m).all(axis=(-2, -1)))}")
        at = at_index(np.abs(m - mh).max(axis=(-2, -1)) > IDENTITY_TOL)
        raise HermiticityViolation(f"anti-Hermitian part has max-norm {defect:.3e}{at} > {IDENTITY_TOL}")
    return (m + mh) / 2


def validated_states(m: np.ndarray) -> np.ndarray:
    """The density-operator gate on a stack ``(..., d, d)`` of Hermitian matrices.

    An eigenvalue below EIGENVALUE_FLOOR or NaN, or a trace off 1 by more
    than TRACE_TOL, raises StateValidationError.  A matrix with eigenvalues in
    [EIGENVALUE_FLOOR, 0) is rebuilt with them set to zero and renormalized,
    in a read-only copy of the stack; with nothing to clip, ``m`` is returned.
    The error names the first failing matrix of a stack of more than one.
    """
    evals, evecs = np.linalg.eigh(m)
    low = evals.min(axis=-1)
    if not (low >= EIGENVALUE_FLOOR).all():
        bad = ~(low >= EIGENVALUE_FLOOR)
        raise StateValidationError(f"state has eigenvalue {low[bad][0]:.3e}{at_index(bad)} < {EIGENVALUE_FLOOR}")
    tr = np.real(np.trace(m, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise StateValidationError(f"state trace {float(tr[off][0])!r}{at_index(off)} differs from 1 by > {TRACE_TOL}")
    clip = low < 0.0
    if clip.any():
        vecs = evecs[clip]
        rebuilt = (vecs * np.clip(evals[clip], 0.0, None)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        rebuilt /= np.real(np.trace(rebuilt, axis1=-2, axis2=-1))[:, None, None]
        m = m.copy()
        m[clip] = hermitian_part(rebuilt)
        m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalue branches of a Hermitian operator with grouped projectors.

    ``eigenvalues`` are in descending order; eigenvalues closer than
    ``GROUP_TOL * (1 + |eigenvalue|)`` form one branch, valued at their mean,
    whose summed projector is the matching row of the read-only stack
    ``projector_stack`` ``(n_branches, d, d)``.
    """

    eigenvalues: np.ndarray
    projector_stack: np.ndarray

    @cached_property
    def projectors(self) -> tuple[HermitianOperator, ...]:
        return tuple(HermitianOperator(p) for p in self.projector_stack)

    @cached_property
    def branches(self) -> tuple[tuple[float, HermitianOperator], ...]:
        """(eigenvalue, projector) per branch, in branch order."""
        return tuple(zip(self.eigenvalues.tolist(), self.projectors))

    def labels(self, prefix: str) -> tuple[str, ...]:
        """Branch labels ``prefix0``, ``prefix1``, ... in branch order: ``a`` for
        the branches of A, ``b`` for B before the measurement, ``b'`` after it."""
        return tuple(f"{prefix}{i}" for i in range(len(self.eigenvalues)))


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


def expectation_and_variance(a, rho):
    """Mean Tr(A rho) and variance Tr(A^2 rho) - mean^2, the package's one owner of the
    moments of an operator in a state; round-off down to ROUNDOFF_FLOOR reads 0.  Floats
    for two matrices, and arrays for broadcasting stacks ``(..., d, d)``.  The traces are
    its own, outside ``expectation``, so that an A^2 that overflows gives a variance of
    inf or NaN, which raises InternalNumericError, not the finiteness error of an operand."""
    am, rm = _operands(a, rho)
    mean, second = (np.real(np.trace(x @ rm, axis1=-2, axis2=-1)) for x in (am, am @ am))
    var = clip_at_floor(second - mean * mean, ROUNDOFF_FLOOR, "variance")
    return (float(mean), var) if mean.ndim == 0 else (mean, var)


def value_variance(values, probs):
    """Variance v²·p - (v·p)² of values v under weights p along the last axis: a float
    for vectors and an array for stacks; round-off down to ROUNDOFF_FLOOR reads 0."""
    v, p = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    second, mean = np.vecdot(v**2, p), np.vecdot(v, p)
    # (v·p)² as a float power: it rounds unlike the array square in about one case in a thousand.
    var = [s - m**2 for s, m in zip(np.ravel(second).tolist(), np.ravel(mean).tolist())]
    return clip_at_floor(np.reshape(var, np.shape(mean)), ROUNDOFF_FLOOR, "variance")


def clip_at_floor(value, floor: float, what: str):
    """A quantity, float or array, that is nonnegative in exact arithmetic: round-off
    in [floor, 0) reads 0 (and -0.0 stays, as in ``max(v, 0.0)``), and a value below
    ``floor``, NaN or an overflow to +inf raises InternalNumericError naming its index."""
    x = np.asarray(value, dtype=float)
    bad = np.flatnonzero(~((x >= floor) & (x < np.inf)))
    if bad.size:
        v = x.flat[bad[0]]
        at = f" at index {tuple(map(int, np.unravel_index(bad[0], x.shape)))}" if x.ndim else ""
        raise InternalNumericError(f"{what} {v:.3e}{at} " + ("overflows" if v == np.inf else f"below {floor}"))
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


def spectra(ops) -> list[SpectralDecomposition]:
    """Eigen-branches of each of a sequence of operators of one dimension; those not
    yet decomposed share one stacked ``eigh`` and one ``hermitian_part``, and each
    result is kept on its operator.  Operators with no two adjacent eigenvalues in one
    branch get a branch per eigenvalue from the stack, and the others :func:`_branches`."""
    todo = [op for op in ops if "spectrum" not in vars(op)]
    if todo:
        try:
            evals, evecs = np.linalg.eigh(np.stack([op.matrix for op in todo]))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise InternalNumericError(f"eigendecomposition failed: {exc}") from exc
        order = np.argsort(evals, axis=-1)[:, ::-1]
        evals, evecs = np.take_along_axis(evals, order, -1), np.take_along_axis(evecs, order[:, None, :], -1)
        columns = evecs.swapaxes(-1, -2).reshape(*evecs.shape, 1)
        # Stacked rank-1 projectors, with _branches only on rows that group: 600 d = 3 operators
        # take 3.7-3.9 ms against 16.4-17.2 ms with _branches on every row, 32 d = 8 operators
        # 1.2-1.3 ms against 2.9-3.1 ms (medians of 7, shared 2-CPU x86_64 host).
        values, projectors = list(evals), list(columns @ columns.conj().swapaxes(-1, -2))
        for i in np.flatnonzero((np.abs(np.diff(evals)) <= GROUP_TOL * (1 + np.abs(evals[:, :-1]))).any(axis=-1)):
            values[i], projectors[i] = _branches(evals[i], evecs[i])
        stack = hermitian_part(np.concatenate(projectors))
        stack.setflags(write=False)
        start = 0
        for op, v in zip(todo, values):
            v.setflags(write=False)
            vars(op)["spectrum"] = SpectralDecomposition(v, stack[start : start + len(v)])
            start += len(v)
    return [op.spectrum for op in ops]


def _branches(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branch values and summed projectors of eigenvalues ``w`` in descending order
    with eigenvectors ``v``: eigenvalues within GROUP_TOL * (1 + |λ|) of a branch's
    first one join it, and the branch is valued at their mean."""
    values, projectors = [], []
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[i]) <= GROUP_TOL * (1 + abs(w[i])):
            j += 1
        values.append(float(np.mean(w[i:j])))
        projectors.append(v[:, i:j] @ v[:, i:j].conj().T)
        i = j
    return np.array(values), np.array(projectors)


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

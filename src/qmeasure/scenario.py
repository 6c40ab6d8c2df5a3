"""Scenario bundles: preparation, targets, apparatus, and value assignments.

A scenario is the unit of work for the analysis harness and the inequality
sweeps.  Scenarios round-trip through a JSON format (complex entries as
``[re, im]`` pairs, matrices row-major) and can be generated randomly with
full seed determinism via the Philox counter-based generator.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingLabel,
    ParseError,
    QMeasureError,
    ValidationError,
)
from .instruments import IndirectModel, Instrument, KrausSet, contextual_value_rows, instruments_of
from .operators import DensityOperator, HermitianOperator, hermitian_part, prebuilt, validated_states
from .tolerances import CV_RESIDUAL_TOL, TRACE_TOL

SCENARIO_KEYS = {"dimension", "state", "observable_A", "observable_B", "apparatus", "values_m", "values_mB", "meta"}
REQUIRED_SCENARIO_KEYS = ("dimension", "state", "observable_A", "apparatus", "values_m")
KRAUS_OUTCOME_KEYS = ("label", "kraus")
INDIRECT_KEYS = ("type", "unitary", "detector_state", "readout_basis", "labels")


@dataclass(frozen=True, eq=False)
class Scenario:
    dimension: int
    state: DensityOperator
    observable_A: HermitianOperator
    apparatus: Instrument
    values_m: dict[str, float]
    observable_B: HermitianOperator | None = None
    indirect: IndirectModel | None = None
    values_mB: dict[str, float] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = {
            "state": self.state.dim,
            "observable_A": self.observable_A.dim,
            "observable_B": None if self.observable_B is None else self.observable_B.dim,
            "apparatus": self.apparatus.dim,
            "indirect": None if self.indirect is None else self.indirect.system_dim,
        }
        wrong = {name: d for name, d in dims.items() if d not in (None, self.dimension)}
        if wrong:
            raise DimensionMismatch(f"declared dimension {self.dimension} inconsistent with {wrong}")
        labels = set(self.apparatus.labels)
        for name, values in (("values_m", self.values_m), ("values_mB", self.values_mB)):
            if values is None:
                continue
            if set(values) != labels:
                raise MissingLabel(
                    f"{name} labels {sorted(values)} do not match outcomes {sorted(labels)}"
                )

    def to_dict(self) -> dict:
        doc = {
            "dimension": self.dimension,
            "state": _matrix_to_json(self.state.matrix),
            "observable_A": _matrix_to_json(self.observable_A.matrix),
            "values_m": {k: float(v) for k, v in sorted(self.values_m.items())},
            "meta": self.meta,
        }
        if self.observable_B is not None:
            doc["observable_B"] = _matrix_to_json(self.observable_B.matrix)
        if self.indirect is not None:
            model = self.indirect
            doc["apparatus"] = {
                "type": "indirect",
                "unitary": _matrix_to_json(model.unitary),
                "detector_state": _matrix_to_json(model.detector_state.matrix),
                "readout_basis": [_matrix_to_json(v) for v in model.readout_basis],
                "labels": list(model.labels),
            }
        else:
            doc["apparatus"] = {
                "type": "kraus",
                "outcomes": [
                    {"label": ks.label, "kraus": [_matrix_to_json(m) for m in ks.operators]}
                    for ks in self.apparatus.outcomes
                ],
            }
        if self.values_mB is not None:
            doc["values_mB"] = {k: float(v) for k, v in sorted(self.values_mB.items())}
        return doc

    def digest(self) -> str:
        """Stable fingerprint of the scenario content."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _matrix_to_json(m: np.ndarray) -> list:
    """A complex matrix, or vector, as nested [re, im] pairs of floats, row-major."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(np.float64).reshape(m.shape + (2,)).tolist()


def _matrix_from_json(doc, what: str, ndim: int = 2) -> np.ndarray:
    """A complex matrix (or, with ``ndim=1``, vector) from nested [re, im] pairs of JSON
    numbers; strings and bools are not numbers here, although numpy would convert them."""
    try:
        arr = np.asarray(doc, dtype=object)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what}: cannot parse entries: {exc}") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ParseError(f"{what}: expected {ndim}-D nested [re, im] pairs, got shape {arr.shape}")
    if not set(map(type, arr.flat)) <= {int, float}:
        raise ParseError(f"{what}: entries must be JSON numbers (not strings or bools)")
    try:
        arr = arr.astype(float)
    except OverflowError as exc:
        raise ParseError(f"{what}: cannot parse entries: {exc}") from exc
    return arr[..., 0] + 1j * arr[..., 1]


def _check_keys(doc, known, where: str, required=()) -> None:
    """``doc`` must be an object with every ``required`` key and no key outside ``known``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be an object, got {type(doc).__name__}")
    unknown = set(doc) - set(known)
    if unknown:
        raise ParseError(f"unknown {where} key(s) {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ParseError(f"missing required {where} key(s) {missing}")


def _list(doc, where: str) -> list:
    if not isinstance(doc, list):
        raise ParseError(f"{where} must be a list, got {type(doc).__name__}")
    return doc


def _values(doc, where: str) -> dict[str, float]:
    """A value assignment: a mapping from outcome label to a finite JSON number."""
    if not isinstance(doc, dict) or any(type(v) not in (int, float) for v in doc.values()):
        raise ParseError(f"{where} must map outcome labels to JSON numbers (not strings or bools)")
    try:
        values = {str(k): float(v) for k, v in doc.items()}
    except OverflowError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    nonfinite = sorted(k for k, v in values.items() if not np.isfinite(v))
    if nonfinite:
        raise ParseError(f"{where} must be finite, got non-finite values for {nonfinite}")
    return values


def _label(doc) -> str:
    if not isinstance(doc, str):
        raise ParseError(f"an outcome label must be a JSON string, got {doc!r}")
    return doc


@np.errstate(over="ignore", invalid="ignore")
def scenario_from_dict(doc: dict) -> Scenario:
    """Build and fully validate a scenario from its JSON document.

    Unknown keys, at the top level, in the apparatus and in each Kraus
    outcome, are rejected rather than ignored; so are missing keys,
    objects or lists of the wrong shape, a ``dimension`` that is not a JSON
    integer, and non-finite values in ``values_m`` or ``values_mB``.  Entries
    near the float range overflow in the gates, which reject them; numpy's
    overflow warnings are not printed.
    """
    _check_keys(doc, SCENARIO_KEYS, "scenario", REQUIRED_SCENARIO_KEYS)
    dimension = doc["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise ParseError(f"dimension must be a JSON integer, got {dimension!r}")
    values_m = _values(doc["values_m"], "values_m")
    values_mB = _values(doc["values_mB"], "values_mB") if "values_mB" in doc else None
    state_doc, a_doc, apparatus_doc = doc["state"], doc["observable_A"], doc["apparatus"]
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"meta must be an object, got {type(meta).__name__}")

    def _wrap(kind, fn, *args):
        try:
            return fn(*args)
        except (ParseError, ValidationError):
            raise
        except QMeasureError as exc:
            raise ValidationError(kind, str(exc)) from exc

    state_m = _matrix_from_json(state_doc, "state")
    tr = float(np.real(np.trace(state_m)))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError("TraceNotOne", f"state trace is {tr!r}")
    state = _wrap("InvalidState", lambda: DensityOperator(state_m))
    obs_a = _wrap("InvalidObservable", lambda: HermitianOperator(_matrix_from_json(a_doc, "observable_A")))
    obs_b = None
    if "observable_B" in doc:
        obs_b = _wrap(
            "InvalidObservable",
            lambda: HermitianOperator(_matrix_from_json(doc["observable_B"], "observable_B")),
        )

    indirect = None
    if not isinstance(apparatus_doc, dict):
        raise ParseError(f"apparatus must be an object, got {type(apparatus_doc).__name__}")
    app_type = apparatus_doc.get("type")
    if app_type == "kraus":
        _check_keys(apparatus_doc, {"type", "outcomes"}, "apparatus")
        sets = []
        for outcome in _list(apparatus_doc.get("outcomes", []), "outcomes"):
            _check_keys(outcome, KRAUS_OUTCOME_KEYS, "Kraus outcome", KRAUS_OUTCOME_KEYS)
            label = _label(outcome["label"])
            where = f"kraus[{label}]"
            kraus = tuple(_matrix_from_json(m, where) for m in _list(outcome["kraus"], where))
            sets.append(_wrap("InvalidKraus", lambda l=label, k=kraus: KrausSet(l, k)))
        apparatus = _wrap("CompletenessViolation", lambda: Instrument.from_kraus(sets))
    elif app_type == "indirect":
        _check_keys(apparatus_doc, INDIRECT_KEYS, "apparatus", INDIRECT_KEYS)
        basis_doc = _list(apparatus_doc["readout_basis"], "readout_basis")
        labels = tuple(map(_label, _list(apparatus_doc["labels"], "labels")))
        detector = _wrap(
            "InvalidState",
            lambda: DensityOperator(_matrix_from_json(apparatus_doc["detector_state"], "detector_state")),
        )
        indirect = _wrap(
            "InvalidIndirectModel",
            lambda: IndirectModel(
                system_dim=dimension,
                detector_state=detector,
                unitary=_matrix_from_json(apparatus_doc["unitary"], "unitary"),
                readout_basis=tuple(_matrix_from_json(v, "readout_basis", ndim=1) for v in basis_doc),
                labels=labels,
            ),
        )
        apparatus = _wrap("CompletenessViolation", lambda: Instrument.from_indirect(indirect))
    else:
        raise ParseError(f"apparatus type must be 'kraus' or 'indirect', got {app_type!r}")

    try:
        return Scenario(
            dimension=dimension,
            state=state,
            observable_A=obs_a,
            observable_B=obs_b,
            apparatus=apparatus,
            indirect=indirect,
            values_m=values_m,
            values_mB=values_mB,
            meta=dict(meta),
        )
    except (DimensionMismatch, MissingLabel) as exc:
        raise ValidationError(type(exc).__name__, str(exc)) from exc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Builders and random generation


def theta_pom_instrument(theta: float) -> Instrument:
    """Two-outcome qubit instrument with Kraus sqrt(P_±), P_± = (1 ± cosθ σz)/2."""
    c = np.cos(theta)
    p_plus = np.diag([(1 + c) / 2, (1 - c) / 2]).astype(complex)
    p_minus = np.diag([(1 - c) / 2, (1 + c) / 2]).astype(complex)
    return Instrument.from_kraus(
        [
            KrausSet("+", (np.sqrt(p_plus),)),
            KrausSet("-", (np.sqrt(p_minus),)),
        ]
    )


def projective_instrument(observable: HermitianOperator) -> Instrument:
    """Projective instrument onto the eigen-branches of an observable."""
    from .operators import spectral_decompose

    spec = spectral_decompose(observable)
    sets = [
        KrausSet(str(i), (np.asarray(proj),)) for i, proj in enumerate(spec.projectors)
    ]
    return Instrument.from_kraus(sets)


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Complex Ginibre matrix: the real parts are drawn first, then the imaginary parts."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _wishart(g: np.ndarray) -> np.ndarray:
    """G G† / Tr of a Ginibre matrix, or of each of a stack."""
    w = g @ g.conj().swapaxes(-1, -2)
    return w / np.real(np.trace(w, axis1=-2, axis2=-1))[..., None, None]


def _gue(g: np.ndarray) -> np.ndarray:
    """(G + G†)/2 of a Ginibre matrix, or of each of a stack."""
    return (g + g.conj().swapaxes(-1, -2)) / 2


def _haar(g: np.ndarray) -> np.ndarray:
    """Q of the QR of a Ginibre matrix, or of each of a stack, with the phases of R's
    diagonal moved into it: a Haar-distributed unitary."""
    q, r = np.linalg.qr(g)
    phase = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phase / np.abs(phase))[..., None, :]


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Normalized complex Wishart state G G† / Tr."""
    return DensityOperator(_wishart(_ginibre(rng, dim)))


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Gaussian Hermitian ensemble draw."""
    return HermitianOperator(_gue(_ginibre(rng, dim)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar(_ginibre(rng, dim))


def random_instrument(dim: int, n_outcomes: int, rng: np.random.Generator) -> Instrument:
    """Instrument from a Haar-random isometry on a dim * n_outcomes dilation,
    partitioned into single-Kraus outcomes."""
    return _dilation_instruments(random_unitary(dim * n_outcomes, rng), dim, n_outcomes)[0]


def _dilation_instruments(u: np.ndarray, dim: int, n_outcomes: int) -> list[Instrument]:
    """The instruments of the isometries, the first ``dim`` columns, of a unitary or of
    each of a stack on a dim * n_outcomes dilation: rows k*dim to (k+1)*dim are the one
    Kraus operator of outcome k."""
    kraus = u[..., :dim].reshape(-1, n_outcomes, 1, dim, dim)
    return instruments_of(kraus, [str(k) for k in range(n_outcomes)])


def generate_random(dim: int, n_outcomes: int, seed) -> Scenario:
    """Deterministic random scenario for the given seed: the window of one seed
    of :func:`generate_window`."""
    return generate_window(dim, n_outcomes, [seed])[0]


def generate_window(dim: int, n_outcomes: int, seeds) -> list[Scenario]:
    """Deterministic random scenarios, one per seed, generated together.

    Each seed keys its own Philox stream, which draws the Ginibre matrices of
    the state, A, B and the dilation unitary of :func:`random_instrument`, in
    this order.  All that follows, every constructor gate included, runs once
    on the window's stacks.  Value assignments come from the contextual-value
    solver when the target lies in the POM span; otherwise raw outcome
    indices are used.  A seed is an int or a tuple of ints, each gated by
    :func:`checked_int` as ``seed`` >= 0.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if n_outcomes < 1:
        raise ValueError(f"need at least one outcome, got {n_outcomes}")
    seeds, big = list(seeds), dim * n_outcomes
    for seed in seeds:
        for part in seed if isinstance(seed, tuple) else (seed,):
            checked_int("seed", part, 0)
    # One standard_normal call per seed yields the values of the per-matrix calls of
    # random_density, random_hermitian (twice) and random_unitary, in their order.
    draws = np.array([_rng(seed).standard_normal(6 * dim * dim + 2 * big * big) for seed in seeds])
    small = draws[:, : 6 * dim * dim].reshape(-1, 3, 2, dim, dim)
    large = draws[:, 6 * dim * dim :].reshape(-1, 2, big, big)
    g = small[:, :, 0] + 1j * small[:, :, 1]
    states = validated_states(hermitian_part(_wishart(g[:, 0])))
    ab = hermitian_part(_gue(g[:, 1:]))
    states.setflags(write=False)
    ab.setflags(write=False)
    insts = _dilation_instruments(_haar(large[:, 0] + 1j * large[:, 1]), dim, n_outcomes)
    values, residuals = contextual_value_rows(np.stack([inst.pom_stack for inst in insts]), ab)
    labels = insts[0].labels

    def assignment(row, residual):
        if residual > CV_RESIDUAL_TOL:
            return {label: float(i) for i, label in enumerate(labels)}
        return dict(zip(labels, row.tolist()))

    return [
        Scenario(
            dimension=dim,
            state=prebuilt(DensityOperator, matrix=rho),
            observable_A=prebuilt(HermitianOperator, matrix=a),
            observable_B=prebuilt(HermitianOperator, matrix=b),
            apparatus=inst,
            values_m=assignment(m[0], r[0]),
            values_mB=assignment(m[1], r[1]),
            meta={"seed": str(seed), "generator": "philox-wishart-haar"},
        )
        for seed, rho, (a, b), inst, m, r in zip(seeds, states, ab, insts, values, residuals)
    ]


def random_indirect_model(dim: int, rng: np.random.Generator) -> IndirectModel:
    """Random system-detector model with a pure random detector state and
    Haar coupling; readout in the computational detector basis."""
    detector = random_density(dim, rng)
    u = random_unitary(dim * dim, rng)
    basis = tuple(np.eye(dim, dtype=complex)[:, k] for k in range(dim))
    labels = tuple(str(k) for k in range(dim))
    return IndirectModel(
        system_dim=dim,
        detector_state=detector,
        unitary=u,
        readout_basis=basis,
        labels=labels,
    )


def checked_int(name: str, value, least: int) -> int:
    """``value`` as a Python int, since numpy integers overflow in Philox.advance: a bool or a
    non-integral value raises TypeError, and one below ``least`` ValueError; both name it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def subseed(seed: int, index) -> int:
    """Derived per-item seed; order-independent across parallel evaluation."""
    entropy = (checked_int("seed", seed, 0),) + tuple(int(i) for i in np.atleast_1d(index))
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])

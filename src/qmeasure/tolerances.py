"""The numerical policy of qmeasure: every threshold, named once.

Each gate in the package reads its threshold from this table, and no other
module writes a threshold of its own.  A threshold decides what counts as
"equal", "zero" or "negative" in floating point.  There are three kinds:

Tolerances (positive) bound the defect of a relation that holds exactly in
exact arithmetic; a larger defect is an error, a smaller one is round-off.

- ``IDENTITY_TOL``: max-norm defect of an exact operator identity.  It gates
  Hermiticity (M = M†), Kraus completeness (Σ M†M = 1), the unitarity of a
  system-detector coupling, the orthonormality of a readout basis, the
  idempotence of a weak-probe target, and QND commutation ([M, B] = 0).
- ``TRACE_TOL``: |Tr ρ − 1| for a density operator, and the parser's
  trace pre-check.
- ``CV_RESIDUAL_TOL``: max-norm residual of Σ_k m_k P_k = target for
  contextual values.  It also decides unbiasedness (A_e[m] = A), and bounds
  the weak-probe calibration residual n₊M₊†M₊ + n₋M₋†M₋ − Π.
- ``CROSS_CHECK_TOL``: agreement of two independent computations of one
  number: ε² and η² in the system, joint and quasiprobability forms, and
  the eigen and contextual sides of the unbiased dispersion.
- ``SATISFACTION_TOL``: a relation lhs ≥ rhs counts as satisfied when
  lhs − rhs ≥ −SATISFACTION_TOL (library records and the CLI alike).
- ``GROUP_TOL``: eigenvalues λ, λ' of one operator with
  |λ − λ'| ≤ GROUP_TOL · (1 + |λ|) form one eigen-branch.
- ``MASS_TOL``: |Σ cells − 1| of a quasiprobability table.

Floors (negative) bound how far below zero a quantity that is nonnegative
in exact arithmetic may fall.  Below its floor the value is rejected; in
[floor, 0) it is round-off and is set to 0 (``operators.clip_at_floor``
applies this to a single number).

- ``EIGENVALUE_FLOOR``: eigenvalues of a density operator (the state is
  then renormalized).
- ``POM_PSD_FLOOR``: eigenvalues of a POM element, and the cell
  probabilities that ``sample`` draws from (renormalized after the clip;
  a non-finite cell is rejected too).
- ``SECOND_MOMENT_FLOOR``: ε², η², the unbiased dispersion, and the
  per-outcome interdictive disturbance Σ (B_b − B_b')² p(b, b' | k).
- ``ROUNDOFF_FLOOR``: a variance: Tr(A²ρ) − ⟨A⟩², the spread of the
  assigned values in the data stream (σ_est), and the spread of a sampled
  stream behind its standard error; and the Branciard radicand
  σ_A² σ_B² − C_AB².

Zero weights (positive) are the value at or below which a nonnegative
weight counts as zero, so its outcome or branch is absent.

- ``ZERO_WEIGHT``: the POM trace of an outcome (at or below it the
  outcome is null, see ``Instrument.live_labels``), the weight of a detector
  eigen-branch, a posterior-branch probability, and the outcome
  probability a weak value is conditioned on.
- ``SLOPE_FLOOR``: a weak-sweep error at or below it is round-off, so no
  log-log slope is fitted.

Quasiprobability cells are never clipped: their negativity is the physics,
not round-off.  Only their total mass is gated.
"""

IDENTITY_TOL = 1e-9
TRACE_TOL = 1e-9
CV_RESIDUAL_TOL = 1e-8
CROSS_CHECK_TOL = 1e-9
SATISFACTION_TOL = 1e-9
GROUP_TOL = 1e-8
MASS_TOL = 1e-10

EIGENVALUE_FLOOR = -1e-9
POM_PSD_FLOOR = -1e-10
SECOND_MOMENT_FLOOR = -1e-9
ROUNDOFF_FLOOR = -1e-12

ZERO_WEIGHT = 1e-12
SLOPE_FLOOR = 1e-14

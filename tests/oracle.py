"""A 40-digit oracle for the numbers qmeasure computes in float64.

:func:`exact_fields` takes a scenario's float inputs (the state, A, B, the Kraus
stack and the value rows) as exact binary values and recomputes, with mpmath at
``DIGITS`` significant digits:

- ε², ε_B² and η², each with its three components, and η²_Lindblad;
- σ_A, σ_B, C_AB, the covariance and σ_est;
- every field of ``outcome_kernels``: ε_A,k, ε_B,k, C_AB,k, η_B,k, the tables T_k,
  the posterior weights and the restricted (k, b') rows;
- lhs and rhs of every relation ``evaluate_all`` returns, each sub-record of the
  Hofmann relations included;
- ``sample``'s mean, ε² and their standard errors, from the counts of a run.

B's branches come from mpmath's eigensolver, grouped as the float path groups
them.  :func:`float_fields` reads the same fields from the library, in the same
order, and :func:`errors` compares the two: a relative error, or an absolute one
where the exact value is 0 within ``ABS_BOUND``.  ``tests/test_oracle.py`` bounds
them on :func:`corpus`; run this file to print each field's largest error:

    PYTHONPATH=src python tests/oracle.py
"""

from __future__ import annotations

import glob
import importlib.util
import os
import sys

import numpy as np
from mpmath import mp

from qmeasure import Scenario, evaluate_all, load_scenario, sample
from qmeasure.inequalities import ScenarioContext, _members
from qmeasure.tolerances import ZERO_WEIGHT

DIGITS = 40
REL_BOUND = 1e-12
ABS_BOUND = 1e-15
SHOTS, SEED = 1000, 7
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_mpc = np.frompyfunc(lambda z: mp.mpc(z.real, z.imag), 1, 1)
_re, _im = np.frompyfunc(mp.re, 1, 1), np.frompyfunc(mp.im, 1, 1)
_sqrt = np.frompyfunc(lambda x: mp.sqrt(max(x, 0)), 1, 1)
_abs = np.frompyfunc(abs, 1, 1)


def exact(x) -> np.ndarray:
    """A float or complex array as an object array of the mpc values of its entries, exactly."""
    return _mpc(np.asarray(x, dtype=complex))


def dag(x: np.ndarray) -> np.ndarray:
    return np.conj(x).swapaxes(-1, -2)


def trace(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(X rho) of broadcasting stacks, as Σ_ij X_ij rho_ji."""
    return (x * rho.swapaxes(-1, -2)).sum(axis=(-2, -1))


def expect(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return _re(trace(x, rho))


def spread(x: np.ndarray, x_sq: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of X in each state of ``rho``."""
    mean = expect(x, rho)
    return mean, expect(x_sq, rho) - mean * mean


def jordan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x @ y + y @ x) / 2


def branches(op, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch values ``(n_b,)`` of an operator's exact matrix, its eigenvectors as the
    columns of ``(d, d)`` and each branch's columns as the 0/1 rows of ``(n_b, d)``, from
    mpmath's eigensolver: eigenvalues in descending order, grouped in the ranks of the
    float path's branches, each branch valued at the mean of its eigenvalues."""
    ranks = np.rint(np.trace(op.spectrum.projector_stack, axis1=1, axis2=2).real).astype(int)
    w, v = mp.eighe(mp.matrix(exact(op.matrix).tolist()))
    order = sorted(range(d), key=lambda i: -w[i])
    vecs = np.array([[v[i, j] for j in order] for i in range(d)], dtype=object)
    group = np.repeat(np.eye(len(ranks), dtype=int), ranks, axis=1).astype(object)
    values = group @ np.array([w[j] for j in order], dtype=object) / ranks
    return values, vecs, group


def noise(x, x_sq, y, y_sq, rho) -> list:
    """<X_sq + Y² - 2 X∘Y> and its three components (first, second, cross)."""
    first, second, cross = expect(x_sq, rho), expect(y_sq, rho), 2 * expect(jordan(x, y), rho)
    return [first + second - cross, first, second, cross]


def min_norm_values(pom: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The minimum-norm m of Σ_k m_k P_k = target over the real vector space of Hermitian
    matrices, by the normal equations; the POM elements must be linearly independent."""

    def vec(x):
        return np.concatenate([_re(x).ravel(), _im(x).ravel()])

    cols = [vec(p) for p in pom]
    gram = mp.matrix([[mp.fdot(ci, cj) for cj in cols] for ci in cols])
    rhs = mp.matrix([mp.fdot(ci, vec(target)) for ci in cols])
    return np.array(mp.lu_solve(gram, rhs).tolist(), dtype=object).ravel()


def stream(values: np.ndarray, p_hat: np.ndarray, shots: int) -> list:
    """Mean of values under the sampled frequencies, and its standard error."""
    mean = values @ p_hat
    return [mean, mp.sqrt(((values - mean) ** 2) @ p_hat / shots)]


def branciard(eps_a, eps_b, sigma_a, sigma_b, c_ab) -> tuple:
    root = mp.sqrt(max(sigma_a**2 * sigma_b**2 - c_ab**2, 0))
    return eps_a**2 * sigma_b**2 + sigma_a**2 * eps_b**2 + 2 * eps_a * eps_b * root, c_ab**2


def exact_fields(s, ctx, run) -> dict[str, list]:
    """The oracle's value of every field of :func:`float_fields`, at ``DIGITS`` digits; the
    restricted rows are those of the float path's posterior mask."""
    with mp.workdps(DIGITS):
        inst = s.apparatus
        rho, a, kraus = exact(s.state.matrix), exact(s.observable_A.matrix), exact(inst.kraus_stack)
        pom = (dag(kraus) @ kraus).sum(axis=1)
        m = np.array([mp.mpf(s.values_m[label]) for label in inst.labels], dtype=object)
        a_sq = a @ a
        out = {"eps^2": noise(np.tensordot(m, pom, 1), np.tensordot(m * m, pom, 1), a, a_sq, rho)}

        p_hat = np.array([mp.mpf(run.counts[label]) / run.shots for label in inst.labels], dtype=object)
        out["sample mean"] = stream(m, p_hat, run.shots)
        if run.empirical_eps_sq is not None:
            out["sample eps^2"] = stream(m * m - min_norm_values(pom, a_sq), p_hat, run.shots)

        k_live, pom_live = kraus[inst.live_mask], pom[inst.live_mask]
        tr_k = _re(np.trace(pom_live, axis1=1, axis2=2))
        retro = pom_live / tr_k[:, None, None]
        if s.observable_B is None:
            out["kernels eps"] = list(_sqrt(spread(a, a_sq, retro)[1]))
            return out
        b = exact(s.observable_B.matrix)
        b_sq = b @ b
        out.update(_b_fields(s, a, a_sq, b, b_sq, rho, kraus, pom, m))
        out.update(_kernel_fields(s, ctx, a, a_sq, b, b_sq, k_live, tr_k, retro))
        out.update(_relations(out, ctx))
        return out


def _b_fields(s, a, a_sq, b, b_sq, rho, kraus, pom, m) -> dict[str, list]:
    """η² and η²_Lindblad, σ_A and σ_B, C_AB, the covariance and, with values_mB, ε_B² and σ_est.
    L_k(X) = -Σ_l (M†[M, X] - [M†, X]M)/2 is A*_k(X) - P_k∘X, so Σ_k L_k(X) = X' - (Σ_k P_k)∘X."""
    b_after, b_sq_after = ((dag(kraus) @ x @ kraus).sum(axis=(0, 1)) for x in (b, b_sq))
    total = pom.sum(axis=0)
    lindblad = b_sq_after - jordan(total, b_sq) - 2 * jordan(b, b_after - jordan(total, b))
    (mean_a, var_a), (mean_b, var_b) = spread(a, a_sq, rho), spread(b, b_sq, rho)
    out = {
        "eta^2": noise(b_after, b_sq_after, b, b_sq, rho),
        "eta^2 lindblad": [expect(lindblad, rho)],
        "sigma": [mp.sqrt(var_a), mp.sqrt(var_b)],
        "c_ab": [abs(trace(a @ b - b @ a, rho)) / 2],
        "covariance": [expect(jordan(a, b), rho) - mean_a * mean_b],
    }
    if s.values_mB is not None:
        mb = np.array([mp.mpf(s.values_mB[label]) for label in s.apparatus.labels], dtype=object)
        out["eps_B^2"] = noise(np.tensordot(mb, pom, 1), np.tensordot(mb * mb, pom, 1), b, b_sq, rho)
        probs = expect(pom, rho)
        out["sigma_est"] = [mp.sqrt(((v - v @ probs) ** 2) @ probs) for v in (m, mb)]
    return out


def _kernel_fields(s, ctx, a, a_sq, b, b_sq, k_live, tr_k, retro) -> dict[str, list]:
    """Every ``outcome_kernels`` field of a scenario with B, in B's exact eigenbasis v_i:
    Tr[Π_i A_k(Π_j)] = Σ_l |v_i† M v_j|², and Tr[X A*_k(Π_i)] = Σ_l u_i† X u_i with u_i = M† v_i."""
    values, vecs, group = branches(s.observable_B, s.dimension)
    w = dag(vecs) @ k_live @ vecs
    cells = _re(w * np.conj(w)).sum(axis=1)
    table = group @ cells.swapaxes(-1, -2) @ group.T / tr_k[:, None, None]
    u = dag(k_live) @ vecs

    def conditioned(xu):
        return _re((np.conj(u) * xu).sum(axis=(1, 2))) @ group.T

    mass = conditioned(u)
    posterior = ctx.kernels.posterior[0]
    mass_or_1 = np.where(posterior, mass, 1)
    mean_a, second_a, mean_b, second_b = (conditioned(x @ u) / mass_or_1 for x in (a, a_sq, b, b_sq))
    r_eps_a, r_eps_b = _sqrt(second_a - mean_a * mean_a), _sqrt(second_b - mean_b * mean_b)
    r_eta_b = _sqrt(second_b - mean_b * mean_b + (values - mean_b) ** 2)
    weights = mass / tr_k[:, None]
    diff = values[:, None] - values[None, :]
    restricted = np.stack([weights, r_eps_a, r_eps_b, r_eta_b, mean_b], axis=-1)[posterior]
    return {
        "kernels eps": [*_sqrt(spread(a, a_sq, retro)[1]), *_sqrt(spread(b, b_sq, retro)[1])],
        "kernels c_ab": list(_abs(trace(a @ b - b @ a, retro)) / 2),
        "kernels eta": list(_sqrt((diff**2 * table).sum(axis=(-2, -1)))),
        "kernels table": list(table.ravel()),
        "kernels weights": list(weights.ravel()),
        "kernels posterior": [int(x > ZERO_WEIGHT) for x in weights.ravel()],
        "kernels restricted": list(restricted.ravel()),
        "hofmann2": [x for pair in zip((r_eps_a * r_eta_b)[posterior], (r_eps_a * r_eps_b)[posterior]) for x in pair],
    }


def _relations(out: dict[str, list], ctx) -> dict[str, list]:
    """lhs and rhs of every relation but hofmann2, from the fields already in ``out``:
    one (lhs, rhs) pair per relation, and one per live outcome of hofmann1 and hofmann3.

    ε_A, η_B and ε_B are square roots of second moments.  Where a second moment is 0
    within ABS_BOUND, its root is ill-conditioned: an error δ in it moves the root by up
    to √δ (a QND apparatus reads η² = 2.2e-16 against the exact 1.4e-16, and so
    η_B = 1.49e-8 against 1.19e-8).  That root is read from ``ctx``, and the field of its
    second moment bounds it; the relations then judge the rest of their arithmetic."""

    def root(name, value):
        x = out[name][0]
        return mp.sqrt(x) if abs(x) > ABS_BOUND else mp.mpf(value)

    eps_a, eta_b = root("eps^2", ctx.eps_A[0]), root("eta^2", ctx.eta_B[0])
    (sa, sb), (c_ab,) = out["sigma"], out["c_ab"]
    n = len(out["kernels c_ab"])
    eps_a_k, eps_b_k, eta_k, c_k = out["kernels eps"][:n], out["kernels eps"][n:], out["kernels eta"], out["kernels c_ab"]
    relations = {
        "heisenberg": [(sa * sb, c_ab)],
        "schrodinger": [(sa**2 * sb**2, out["covariance"][0] ** 2 + c_ab**2)],
        "ozawa": [(eps_a * eta_b + eps_a * sb + sa * eta_b, c_ab)],
        "branciard_ed": [branciard(eps_a, eta_b, sa, sb, c_ab)],
        "hofmann1": [(x * y, c) for x, y, c in zip(eps_a_k, eps_b_k, c_k)],
        "hofmann3": [(x * y, c) for x, y, c in zip(eps_a_k, eta_k, c_k)],
    }
    if "eps_B^2" in out:
        eps_b, (est_a, est_b) = root("eps_B^2", ctx.eps_B[0]), out["sigma_est"]
        relations["hall"] = [(eps_a * eps_b + eps_a * sb + sa * eps_b, c_ab)]
        relations["weston"] = [(eps_a * (sb + est_b) / 2 + eps_b * (sa + est_a) / 2, c_ab)]
        relations["branciard_ee"] = [branciard(eps_a, eps_b, sa, sb, c_ab)]
    return {rid: [x for pair in pairs for x in pair] for rid, pairs in relations.items()}


def float_fields(s, ctx, run) -> dict[str, list]:
    """The library's float64 value of every field of :func:`exact_fields`, in the same order,
    read from the scenario's context and a ``sample`` run."""

    def report(r):
        return [r.mean_squared, *r.components]

    out = {"eps^2": report(ctx.epsilon[0]), "sample mean": [run.empirical_mean, run.empirical_mean_se]}
    if run.empirical_eps_sq is not None:
        out["sample eps^2"] = [run.empirical_eps_sq, run.empirical_eps_sq_se]
    ks = ctx.kernels
    if s.observable_B is None:
        out["kernels eps"] = ks.eps[0, :, 0].tolist()
        return out
    out["eta^2"] = report(ctx.eta[0])
    out["eta^2 lindblad"] = [ctx.eta_lindblad[0]]
    out.update(sigma=ctx.sigma[0], c_ab=[ctx.c_ab[0]], covariance=[ctx.covariance[0]])
    if s.values_mB is not None:
        out["eps_B^2"] = report(ctx._noise[1][0][1])
        out["sigma_est"] = ctx.sigma_est[0]
    out["kernels eps"] = ks.eps[0].T.ravel().tolist()
    out["kernels c_ab"] = ks.c_ab[0].tolist()
    out["kernels eta"] = ks.eta[0].tolist()
    out["kernels table"] = ks.table[0].ravel().tolist()
    out["kernels weights"] = ks.weights[0].ravel().tolist()
    out["kernels posterior"] = ks.posterior[0].ravel().astype(float).tolist()
    out["kernels restricted"] = ks.restricted[0][ks.posterior[0]].ravel().tolist()
    for rid, rec in evaluate_all(s, ctx).items():
        subs = rec.sub_records or [rec]
        out[rid] = [x for sub in subs for x in (sub.lhs, sub.rhs)]
    return out


def errors(s) -> dict[str, tuple[float, float]]:
    """Per field of a scenario, the largest relative error over its nonzero exact values
    and the largest absolute error over those that are 0 within ``ABS_BOUND`` (0.0 where
    a field has no such value), from one ``sample`` run of ``SHOTS`` shots, seed ``SEED``."""
    ctx, run = ScenarioContext([s]), sample(s, SHOTS, SEED)
    got, want = float_fields(s, ctx, run), exact_fields(s, ctx, run)
    assert got.keys() == want.keys(), (sorted(got), sorted(want))
    out = {}
    with mp.workdps(DIGITS):
        for name, values in got.items():
            assert len(values) == len(want[name]), name
            rel = absolute = 0.0
            for x, e in zip(values, want[name]):
                if abs(e) <= ABS_BOUND:
                    absolute = max(absolute, float(abs(x - e)))
                else:
                    rel = max(rel, float(abs((x - e) / e)))
            out[name] = (rel, absolute)
    return out


def _d4_indirect(count: int) -> list[Scenario]:
    """``generate_d4_indirect(0, i)`` of the benchmark's workloads for i < ``count``,
    loaded by path without writing bytecode next to it."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return [module.generate_d4_indirect(0, i) for i in range(count)]


def corpus() -> list[tuple[str, Scenario]]:
    """The bundled files, six d = 4 indirect scenarios, and three ``_members(…, 31, 4)``
    members at each of d = 2, 3, 5 and 8, each with a name."""
    bundled = [(os.path.basename(p), load_scenario(p)) for p in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json")))]
    indirect = [(f"d4-indirect-{i}", s) for i, s in enumerate(_d4_indirect(6))]
    members = [(f"member-d{s.dimension}-{s.meta['seed']}", s) for s, _ in _members([2, 3, 5, 8], 3, 31, 4)]
    return bundled + indirect + members


def largest(per_scenario: dict[str, dict[str, tuple[float, float]]]) -> dict[str, tuple[float, float]]:
    """Each field's largest relative and absolute error over the scenarios."""
    out: dict[str, tuple[float, float]] = {}
    for fields in per_scenario.values():
        for name, (rel, absolute) in fields.items():
            r, a = out.get(name, (0.0, 0.0))
            out[name] = (max(r, rel), max(a, absolute))
    return out


if __name__ == "__main__":
    for name, (rel, absolute) in sorted(largest({n: errors(s) for n, s in corpus()}).items()):
        print(f"{name:20s} relative {rel:.2e}  absolute (exact 0) {absolute:.2e}")

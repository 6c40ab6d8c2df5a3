"""The 40-digit oracle of ``tests/oracle.py`` on its corpus.

Every field of every scenario is within ``REL_BOUND`` (1e-12) of its 40-digit
value, relative, or within ``ABS_BOUND`` (1e-15), absolute, where that value is
0.  This judges accuracy where the fingerprint judges only bit identity: a change
that moves bits runs ``python tests/oracle.py`` on both trees and shows that no
field's largest error grew.
"""

import pytest

pytest.importorskip("mpmath")

import oracle  # noqa: E402 - after the skip, since it imports mpmath
from qmeasure.inequalities import RELATION_IDS  # noqa: E402

CORPUS = oracle.corpus()


def test_the_corpus():
    names = [name for name, _ in CORPUS]
    assert names[:4] == ["cnot_projective.json", "qnd.json", "theta_pom.json", "weak_probe.json"]
    assert sum(name.startswith("d4-indirect-") for name in names) == 6
    for dim in (2, 3, 5, 8):
        assert sum(name.startswith(f"member-d{dim}-") for name in names) >= 3


def test_every_relation_and_kernel_field_is_judged():
    s = dict(CORPUS)["d4-indirect-0"]
    fields = oracle.errors(s)
    kernels = {"eps", "c_ab", "eta", "table", "weights", "posterior", "restricted"}
    assert set(RELATION_IDS) | {f"kernels {name}" for name in kernels} <= fields.keys()
    assert {"eps^2", "eps_B^2", "eta^2", "eta^2 lindblad", "sigma", "c_ab", "covariance", "sigma_est"} <= fields.keys()
    assert {"sample mean"} <= fields.keys()


@pytest.mark.parametrize("scenario", [s for _, s in CORPUS], ids=[name for name, _ in CORPUS])
def test_every_field_is_within_the_bound(scenario):
    for name, (rel, absolute) in oracle.errors(scenario).items():
        assert rel <= oracle.REL_BOUND, (name, rel)
        assert absolute <= oracle.ABS_BOUND, (name, absolute)

"""The witness verdict on a hand-built family: every non-coverage method,
the empty witness and a witness wider than the threshold."""

import numpy as np
import pytest

import covercert.witness as witness
from covercert.bodies import BallBody, CoverFamily
from covercert.isometry_nets import IsometryNet
from covercert.witness import verdict

# X: two points 1.8 apart on the x-axis
X = np.array([[-0.9, 0.0], [0.9, 0.0]])


def _family(*translations) -> CoverFamily:
    """Discs of radius 0.6 (a radius-0.5 base thickened by 0.1) at the
    given centres."""
    t = np.asarray(translations, dtype=float)
    net = IsometryNet(2, 0.1, np.repeat(np.eye(2)[None], len(t), axis=0), t, {})
    return CoverFamily(BallBody(np.zeros(2), 0.5), 0.1, net)


# the first two discs each hold one point of X; the third holds none
PAIR_COVERS = _family((-0.5, 0.0), (0.5, 0.0), (5.0, 5.0))
NO_PAIR_COVERS = _family((-0.5, 0.0), (3.0, 0.0), (5.0, 5.0))
# two discs holding the same point of X: counts (1, 1, 0), yet no pair covers
SAME_POINT = _family((-0.5, 0.0), (-0.6, 0.1), (5.0, 5.0))


@pytest.mark.parametrize("family,k,expected", [
    (PAIR_COVERS, 1, (True, "per-member-counts")),
    (PAIR_COVERS, 2, (False, "exhaustive-enumeration")),
    (NO_PAIR_COVERS, 2, (True, "exhaustive-enumeration")),
    (SAME_POINT, 2, (True, "exhaustive-enumeration")),
], ids=["k1", "k2-pair-covers", "k2-no-pair-covers", "k2-same-point"])
def test_verdict_methods(family, k, expected):
    holds, diam, method = verdict(X, family.counts(X), family, k, 2.0)
    assert (holds, method) == expected
    assert diam == pytest.approx(1.8, abs=1e-12)


def test_verdict_count_sum_above_enumeration_cap(monkeypatch):
    monkeypatch.setattr(witness, "ENUMERATION_CAP", 0)
    # SAME_POINT's counts sum to |X|: the bound cannot exclude a covering
    # pair that enumeration shows does not exist
    for family, holds in ((PAIR_COVERS, False), (SAME_POINT, False), (NO_PAIR_COVERS, True)):
        assert verdict(X, family.counts(X), family, 2, 2.0)[::2] == (holds, "count-sum")


def test_verdict_empty_and_too_wide():
    assert verdict(np.empty((0, 2)), np.zeros(3, dtype=int), PAIR_COVERS, 1, 2.0) == \
        (False, 0.0, "empty")
    # wider than the threshold: not a witness, whatever the family does
    holds, diam, method = verdict(X, NO_PAIR_COVERS.counts(X), NO_PAIR_COVERS, 1, 1.0)
    assert (holds, method) == (False, "diameter") and diam > 1.0


@pytest.mark.parametrize("k", [0, -1, 4, 10**9])
def test_verdict_rejects_k_outside_family(k):
    # k = 10**9 would otherwise reach itertools.combinations, which
    # allocates k indices before it finds no subset
    with pytest.raises(ValueError, match="must lie in \\[1, 3\\]"):
        verdict(X, PAIR_COVERS.counts(X), PAIR_COVERS, k, 2.0)

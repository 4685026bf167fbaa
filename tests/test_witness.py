"""The witness verdict on a hand-built family: every non-coverage method,
the empty witness and a witness wider than the threshold; and the largest
member measure the lemma report records, exact for ball members."""

import math

import numpy as np
import pytest

import covercert.witness as witness
from covercert.bodies import BallBody, CoverFamily, body_from_json_dict
from covercert.coclique import family_counts
from covercert.geom_core import RngStream, uniform_ball_points
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


def _translates(base, centers) -> CoverFamily:
    """base thickened by 0.1 and translated to each of the centers."""
    n = base.dim
    net = IsometryNet(n, 0.1, np.repeat(np.eye(n)[None], len(centers), axis=0), centers, {})
    return CoverFamily(base, 0.1, net)


@pytest.mark.parametrize("n", range(2, 7))
def test_member_measure_max_is_exact_for_balls(n):
    # six members of radius 0.6, none centred at the origin, on r B_n
    r, samples = 0.62, 10**5
    family = _translates(BallBody(np.zeros(n), 0.5),
                         np.random.default_rng(70 + n).uniform(-0.3, 0.3, (6, n)))
    entry = witness._member_measure_max(family, r, 1, RngStream(0, 0))
    assert entry == {"value": entry["value"], "method": "exact",
                     "formula": witness.MEMBER_FORMULA}
    p_max = entry["value"]
    nu = family.counts(uniform_ball_points(RngStream(80 + n, 0).generator(), n, r, samples))
    nu = nu / samples
    sigma = np.sqrt(nu * (1.0 - nu) / samples)
    nearest = int(np.argmin(family.centers_sq))
    assert abs(nu[nearest] - p_max) <= 4.0 * math.sqrt(p_max * (1.0 - p_max) / samples)
    # no member measures more than the exact maximum
    assert np.all(nu - 4.0 * sigma <= p_max), (nu, p_max)


def test_member_measure_max_probes_other_bases():
    segment = body_from_json_dict({
        "dim": 2, "kind": "halfspaces", "exact_volume": None,
        "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.3},
                       {"normal": [-1.0, 0.0], "offset": 0.3},
                       {"normal": [0.0, 1.0], "offset": 0.0},
                       {"normal": [0.0, -1.0], "offset": 0.0}],
        "bound": {"center": [0.0, 0.0], "radius": 0.3}})
    family = _translates(segment, np.array([[0.0, 0.0], [0.2, 0.1], [0.9, 0.0]]))
    assert family.centers is None
    entry = witness._member_measure_max(family, 0.55, 400, RngStream(3, 2))
    probe = uniform_ball_points(RngStream(3, 2).generator(), 2, 0.55, 400)
    assert entry == {"value": float(family_counts(family, probe).max()) / 400,
                     "method": "monte-carlo", "samples": 400}

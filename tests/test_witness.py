"""The witness verdict on a hand-built family: every non-coverage method,
the empty witness and a witness wider than the threshold; and the largest
member measure the lemma report records, exact for ball members and, for
other bases, the closed-form bound of the base's thickened volume."""

import math

import numpy as np
import pytest

import covercert.witness as witness
from covercert.bodies import BallBody, body_from_json_dict
from covercert.families import CoverFamily
from covercert.geom_core import RngStream, uniform_ball_points
from covercert.isometry_nets import IsometryNet
from covercert.witness import verdict

# X: two points 1.8 apart on the x-axis
X = np.array([[-0.9, 0.0], [0.9, 0.0]])


def _family(*translations) -> CoverFamily:
    """Discs of radius 0.6 (a radius-0.5 base thickened by 0.1) at the
    given centres."""
    t = np.asarray(translations, dtype=float)
    net = IsometryNet(2, 0.1, np.eye(2)[None], t, {})
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
    net = IsometryNet(n, 0.1, np.eye(n)[None], centers, {})
    return CoverFamily(base, 0.1, net)


@pytest.mark.parametrize("n", range(2, 7))
def test_member_measure_max_is_exact_for_balls(n):
    # six members of radius 0.6, none centred at the origin, on r B_n
    r, samples = 0.62, 10**5
    family = _translates(BallBody(np.zeros(n), 0.5),
                         np.random.default_rng(70 + n).uniform(-0.3, 0.3, (6, n)))
    entry = witness._estimates(family, r, 0.5)["member_measure_max"]
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


def _bench_segment():
    """The benchmark's segment body, of length 0.6."""
    return body_from_json_dict({
        "dim": 2, "kind": "halfspaces", "exact_volume": None,
        "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.3},
                       {"normal": [-1.0, 0.0], "offset": 0.3},
                       {"normal": [0.0, 1.0], "offset": 0.0},
                       {"normal": [0.0, -1.0], "offset": 0.0}],
        "bound": {"center": [0.0, 0.0], "radius": 0.3}})


def test_member_measure_max_bounds_other_bases():
    # no member of a segment family is a ball: every member is bounded by
    # the capsule's area 2 l eps + pi eps^2 over Vol(r B_2), whatever the net
    segment = _bench_segment()
    family = _translates(segment, np.array([[0.0, 0.0], [0.2, 0.1], [0.9, 0.0]]))
    assert family.centers is None
    entry = witness._estimates(family, 0.55, 0.5)["member_measure_max"]
    capsule = 2.0 * 0.6 * 0.1 + math.pi * 0.1 ** 2
    assert entry == {"value": entry["value"], "method": "bound",
                     "formula": witness.MEMBER_BOUND_FORMULA}
    assert entry["value"] == pytest.approx(capsule / (math.pi * 0.55 ** 2), rel=1e-14)
    # at the benchmark's eps 0.4 the capsule's area 0.983 exceeds
    # Vol(r B_2) = 0.950: the bound is 1
    wide = CoverFamily(segment, 0.4, family.net)
    assert witness._estimates(wide, 0.55, 0.5)["member_measure_max"]["value"] == 1.0


def test_back_images_depend_only_on_their_own_pair():
    # each point's mapped images under the bench segment's 4,598 members
    # have the same bits whether the point is probed alone or in a 30-point
    # set (a product over the whole set once rounded 26,604 of the 137,940
    # images differently), and so do its membership decisions
    family = witness.witness_family(_bench_segment(), 0.55, 0.4)
    probe = uniform_ball_points(RngStream(1001, 2).generator(), 2, 0.55, 30)
    mapped = []

    def spying(points):
        mapped.append(points.copy())
        return np.zeros(len(points), dtype=bool)

    def images(pts):
        mapped.clear()
        for _ in family.pair_blocks(pts[None], np.zeros(len(family), dtype=int),
                                    np.arange(len(family))):
            pass
        return np.concatenate([b.reshape(len(pts), -1, 2) for b in mapped], axis=1)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(family.body, "contains_many", spying)
        together = images(probe)
        alone = np.concatenate([images(probe[j:j + 1]) for j in range(len(probe))])
    assert together.shape == (30, 4598, 2) and together.tobytes() == alone.tobytes()
    inside = family.contains(probe)
    assert inside.any()
    for j in range(len(probe)):
        assert np.array_equal(inside[:, j], family.contains(probe[j:j + 1])[:, 0])


def test_search_refuses_a_dimension_its_verifier_refuses(monkeypatch):
    # the library search checks the witness domain before it builds the
    # family, as the verifier does: n = 4 would otherwise build 5,065
    # members and emit a certificate that cannot be verified
    def never(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(witness, "build_cover_family", never)
    with pytest.raises(ValueError, match="n = 4 is outside the witness domain"):
        witness.search_witness(BallBody(np.zeros(4), 0.05), 1, 0.3, 1.0, 1, 0.3, 16, 0.05,
                               64, {})

"""Isometry-net tests: operator-distance formulas against brute SVD, grid
net coverage (n <= 3), translation grids, and the product cover family
with its fault-injection audit."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covercert.geom_core as geom_core
import covercert.isometry_nets as isometry_nets
from covercert.bodies import BallBody, Isometry, probe_points, thicken
from covercert.families import CoverFamily
from covercert.geom_core import Ball, RngStream, sample_uniform_ball
from covercert.isometry_nets import (
    AUDIT_PROBES,
    IsometryNet,
    audit_cover_family,
    audit_orthogonal_net,
    build_cover_family,
    build_orthogonal_net,
    build_translation_cover,
    haar_orthogonal,
    min_distance_to_net,
    translation_cover_size_floor_log,
    _nearest,
)


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# isometry algebra


def test_isometry_apply_inverse_compose():
    gen = np.random.default_rng(0)
    q, _ = np.linalg.qr(gen.normal(size=(3, 3)))
    f = Isometry(q, gen.normal(size=3))
    g = Isometry(np.eye(3), np.zeros(3))
    pts = gen.normal(size=(20, 3))
    assert np.allclose(g.apply(pts), pts)
    assert np.allclose(f.inverse().apply(f.apply(pts)), pts, atol=1e-12)
    h = Isometry(haar_orthogonal(3, gen, 1)[0], gen.normal(size=3))
    assert np.allclose(h.compose(f).apply(pts), h.apply(f.apply(pts)), atol=1e-12)


def test_isometry_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        Isometry(np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        Isometry(np.eye(2), np.zeros(3))


def test_isometry_json_round_trip():
    f = Isometry(_rot(0.8), np.array([1.0, -2.0]))
    back = Isometry.from_json_dict(f.to_json_dict())
    assert np.allclose(back.matrix, f.matrix)
    assert np.allclose(back.translation, f.translation)


# ---------------------------------------------------------------------------
# operator distances


def test_min_distance_trace_formula_matches_svd():
    gen = np.random.default_rng(21)
    for n in (2, 3):
        probes = haar_orthogonal(n, gen, 40)
        net = haar_orthogonal(n, gen, 12)
        got = min_distance_to_net(probes, net)
        want = np.array([
            min(np.linalg.svd(p - e, compute_uv=False)[0]
                if np.linalg.det(p) * np.linalg.det(e) > 0 else 2.0
                for e in net)
            for p in probes
        ])
        assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("n, delta", [(2, 0.05), (3, 0.5)])
def test_min_distance_in_small_blocks(monkeypatch, n, delta):
    # blocks of one or three probe matrices give the distances of one block
    net = build_orthogonal_net(n, delta).rotations
    probes = haar_orthogonal(n, np.random.default_rng(3), 50)
    want = min_distance_to_net(probes, net)
    for products in (1, 3 * len(net) // 2):
        monkeypatch.setattr(geom_core, "BLOCK_ELEMS", products)
        assert np.allclose(min_distance_to_net(probes, net), want, rtol=0.0, atol=1e-12)


def test_min_distance_opposite_class_is_two():
    reflector = np.diag([1.0, -1.0])
    d = min_distance_to_net(np.eye(2)[None], reflector[None])
    assert d[0] == 2.0


# ---------------------------------------------------------------------------
# haar sampling


def test_haar_orthogonal_properties():
    gen = np.random.default_rng(24)
    mats = haar_orthogonal(4, gen, 64)
    for m in mats:
        assert np.abs(m.T @ m - np.eye(4)).max() < 1e-10
    dets = np.linalg.det(mats)
    assert np.allclose(np.abs(dets), 1.0, atol=1e-8)
    assert np.any(dets > 0) and np.any(dets < 0)  # both classes occur


def test_haar_orthogonal_deterministic():
    a = haar_orthogonal(3, np.random.default_rng(7), 5)
    b = haar_orthogonal(3, np.random.default_rng(7), 5)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# orthogonal nets


def test_net_n1_exact():
    net = build_orthogonal_net(1, 0.5)
    assert len(net) == 2
    assert net.certificate["covering_radius"] == 0.0
    rep = audit_orthogonal_net(net, 100, RngStream(1, 0))
    assert rep["pass"]


def test_net_n2_grid_coverage():
    delta = 0.3
    net = build_orthogonal_net(2, delta)
    assert net.certificate["covering_radius"] <= delta + 1e-12
    count = net.certificate["per_class"]
    assert len(net) == 2 * count
    # worst case: a rotation halfway between adjacent grid angles
    worst = _rot(math.pi / count)
    d = min_distance_to_net(worst[None], net.rotations)[0]
    assert d <= delta + 1e-9
    rep = audit_orthogonal_net(net, 400, RngStream(2, 0))
    assert rep["pass"], rep


def test_net_n3_grid_coverage():
    net = build_orthogonal_net(3, 1.0)
    assert net.certificate["covering_radius"] <= 1.0 + 1e-12
    rep = audit_orthogonal_net(net, 300, RngStream(3, 0))
    assert rep["pass"], rep


def test_net_validation():
    with pytest.raises(ValueError):
        build_orthogonal_net(7, 0.5)
    with pytest.raises(ValueError):
        build_orthogonal_net(2, 0.0)
    with pytest.raises(ValueError):
        build_orthogonal_net(4, 1.0)  # no net beyond n = 3
    with pytest.raises(ValueError):
        min_distance_to_net(np.eye(4)[None], np.eye(4)[None])


def test_net_json_round_trip():
    net = build_orthogonal_net(2, 0.7)
    back = IsometryNet.from_json_dict(net.to_json_dict())
    assert back.dim == net.dim and back.delta == net.delta
    assert len(back) == len(net)
    assert np.allclose(back.rotations, net.rotations)
    assert np.array_equal(back.translations, np.zeros((1, 2)))


def test_net_json_batched_validation():
    doc = build_orthogonal_net(2, 0.7).to_json_dict()
    bad = json.loads(json.dumps(doc))
    bad["elements"][3]["matrix"][0][0] = 1.01
    with pytest.raises(ValueError, match="net element matrix 3 is not orthogonal"):
        IsometryNet.from_json_dict(bad)
    bad["elements"][3]["matrix"][0][0] = float("nan")  # json reads NaN tokens
    with pytest.raises(ValueError, match="finite"):
        IsometryNet.from_json_dict(bad)
    bad = json.loads(json.dumps(doc))
    bad["elements"][-1]["translation"] = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="must share one shape"):
        IsometryNet.from_json_dict(bad)
    for element in bad["elements"]:
        element["translation"] = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="translation dimension mismatch"):
        IsometryNet.from_json_dict(bad)
    empty = IsometryNet.from_json_dict(dict(doc, elements=[]))
    assert len(empty) == 0 and empty.rotations.shape == (0, 2, 2)


@pytest.mark.parametrize("n,eps,window", [(1, 0.3, 0.5), (2, 0.3, 0.5), (3, 5.0, 3.0)])
def test_cover_family_members_are_the_old_product(n, eps, window):
    # the factors expand to exactly the np.repeat / np.tile arrays the
    # family was once built as, and a listed net factors back into them;
    # an off-centre ball needs a rotation net (n = 3: 96 rotations, 27
    # translations)
    body = BallBody(np.full(n, 0.05), 0.3)
    net = build_cover_family(body, 1.0, Ball(np.zeros(n), window), eps, max_size=10**4)
    rotations, translations = net.rotations, net.translations
    assert len(rotations) > 1 and len(translations) > 1
    assert net.certificate["size"] == len(net) == len(rotations) * len(translations)
    mats, trans = net.members(np.arange(len(net)))
    assert mats.tobytes() == np.repeat(rotations, len(translations), axis=0).tobytes()
    assert trans.tobytes() == np.tile(translations, (len(rotations), 1)).tobytes()
    back = IsometryNet.from_json_dict(json.loads(json.dumps(net.to_json_dict())))
    assert back.rotations.tobytes() == rotations.tobytes()
    assert back.translations.tobytes() == translations.tobytes()


def test_net_json_factors_repeated_rotations_and_refuses_other_lists():
    # rotations (I, I, R) with two translations: the leading run of equal
    # matrices is four long, yet the list is a product of period two
    rot, shifts = _rot(0.4), np.array([[0.1, 0.0], [0.0, 0.2]])
    net = IsometryNet(2, 0.1, np.stack([np.eye(2), np.eye(2), rot]), shifts, {})
    doc = net.to_json_dict()
    back = IsometryNet.from_json_dict(doc)
    assert (len(back.rotations), len(back.translations)) == (3, 2)
    every = np.arange(len(net))
    assert all(np.array_equal(a, b) for a, b in zip(back.members(every), net.members(every)))
    # a pair swapped, or one member dropped, is not a rotation-major product
    for elements in (doc["elements"][1::-1] + doc["elements"][2:], doc["elements"][:-1]):
        with pytest.raises(ValueError, match="not every rotation with every translation"):
            IsometryNet.from_json_dict(dict(doc, elements=elements))


# ---------------------------------------------------------------------------
# translation covers


def test_translation_cover_radius():
    ball = Ball(np.array([0.5, -0.5]), 1.0)
    rho = 0.17
    centers = build_translation_cover(ball, rho)
    probes = sample_uniform_ball(2, ball.radius, 500, RngStream(6, 0)) + ball.center
    d = np.sqrt(((probes[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2))
    assert d.min(axis=1).max() <= rho + 1e-9


def test_translation_cover_degenerate_and_pitch():
    ball = Ball(np.zeros(3), 0.05)
    centers = build_translation_cover(ball, 0.1)
    assert centers.shape == (1, 3)
    assert np.allclose(centers[0], 0.0)
    with pytest.raises(ValueError):
        build_translation_cover(ball, 0.0)
    # grid pitch along an axis is 2 rho / sqrt(n)
    centers = build_translation_cover(Ball(np.zeros(2), 1.0), 0.2)
    xs = np.unique(centers[:, 0])
    gaps = np.diff(xs)
    assert np.allclose(gaps, 2.0 * 0.2 / math.sqrt(2.0), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.floats(0.01, 2.0), st.floats(0.03, 0.5),
       st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_translation_cover_size_floor_is_a_lower_bound(n, radius, rho, center):
    ball = Ball(np.array(center[:n]), radius)
    count = len(build_translation_cover(ball, rho))
    assert math.exp(translation_cover_size_floor_log(ball, rho)) <= count


def test_translation_cover_size_floor_is_close_and_validated():
    ball = Ball(np.zeros(2), 1.57)  # the seed-2 witness window
    floor = math.exp(translation_cover_size_floor_log(ball, 0.01))
    assert 0.95 * len(build_translation_cover(ball, 0.01)) <= floor
    assert translation_cover_size_floor_log(Ball(np.zeros(3), 0.05), 0.1) == 0.0
    with pytest.raises(ValueError):
        translation_cover_size_floor_log(ball, 0.0)


@pytest.mark.parametrize("body,window,eps", [
    (BallBody(np.zeros(2), 0.5), Ball(np.zeros(2), 1.57), 0.02),
    (BallBody(np.array([0.1, 0.0]), 0.3), Ball(np.zeros(2), 1.2), 0.3),
    (BallBody(np.array([0.1, 0.0, 0.0]), 0.3), Ball(np.zeros(3), 0.3), 1.0),
    (BallBody(np.array([0.1, 0.0, 0.0]), 0.3), Ball(np.zeros(3), 0.6), 1.0),
], ids=["ball-2d", "off-centre-2d", "rotations-only-3d", "off-centre-3d"])
def test_cover_family_max_size_admits_its_own_size(body, window, eps):
    # the floor (grid rotation net times translation-grid floor) never
    # exceeds the size of the family it bounds, also for O(2) and O(3) nets
    d_bound = 2.0 * (float(np.linalg.norm(body.bound.center)) + body.bound.radius)
    full = build_cover_family(body, d_bound, window, eps)
    assert len(build_cover_family(body, d_bound, window, eps, max_size=len(full))) == len(full)


def test_cover_family_max_size_refuses_before_building(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a net was built")

    body, window = segment_2d(), Ball(np.zeros(2), 1.0)
    monkeypatch.setattr(isometry_nets, "build_translation_cover", never)
    monkeypatch.setattr(isometry_nets, "build_orthogonal_net", never)
    with pytest.raises(ValueError, match="more than the 10 allowed"):
        build_cover_family(body, 1.0, window, 0.2, max_size=10)
    # the rotation grid counts: the 3-d family below has 4,608 rotations and
    # one translation, so it is refused at 1,000 members
    off_centre = BallBody(np.array([0.1, 0.0, 0.0]), 0.3)
    with pytest.raises(ValueError, match="more than the 1000 allowed"):
        build_cover_family(off_centre, 0.8, Ball(np.zeros(3), 0.3), 1.0, max_size=1000)


# ---------------------------------------------------------------------------
# cover families


def segment_2d():
    from covercert.audits import segment_body

    return segment_body()


def test_cover_family_ball_fast_path():
    body = BallBody(np.zeros(2), 0.5)
    window = Ball(np.zeros(2), 1.0)
    net = build_cover_family(body, 1.0, window, 0.2)
    cert = net.certificate
    assert cert["rotation_count"] == 1
    assert cert["rotation_certificate"]["kind"] == "symmetry"
    assert cert["size"] == len(net) == cert["translation_count"]


def test_cover_family_needs_rotations_for_segments():
    net = build_cover_family(segment_2d(), 1.0, Ball(np.zeros(2), 1.0), 0.2)
    assert net.certificate["rotation_count"] > 1
    # actual size within the declared log bound
    assert math.log(len(net)) <= net.certificate["size_bound_log"] + 1e-9


def test_cover_family_validation():
    body = BallBody(np.zeros(2), 0.5)
    window = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        build_cover_family(body, 1.0, window, 0.0)
    with pytest.raises(ValueError):
        build_cover_family(body, 0.0, window, 0.1)
    with pytest.raises(ValueError):
        build_cover_family(body, 1.0, Ball(np.zeros(3), 1.0), 0.1)
    shifted = BallBody(np.array([9.0, 0.0]), 0.5)  # origin not inside
    with pytest.raises(ValueError):
        build_cover_family(shifted, 1.0, window, 0.1)


def test_cover_family_beyond_net_dims(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a translation grid was built")

    window = Ball(np.zeros(4), 0.3)
    # a 4-d body that needs rotations has no net: refused before building
    monkeypatch.setattr(isometry_nets, "build_translation_cover", never)
    with pytest.raises(ValueError, match="dimensions 1..3"):
        build_cover_family(BallBody(np.array([0.1, 0.0, 0.0, 0.0]), 0.3), 0.8, window, 0.3)
    monkeypatch.undo()
    # an origin-centred ball needs none, in any dimension
    net = build_cover_family(BallBody(np.zeros(4), 0.3), 0.6, window, 0.3)
    assert net.certificate["rotation_count"] == 1
    assert net.certificate["rotation_certificate"]["kind"] == "symmetry"
    assert len(net) == net.certificate["translation_count"] > 1


def test_cover_family_audit_passes_segment():
    body = segment_2d()
    window = Ball(np.zeros(2), 1.0)
    net = build_cover_family(body, 1.0, window, 0.2)
    rep = audit_cover_family(net, body, window, 0.2, trials=60,
                             rng=RngStream(10, 0))
    assert rep["pass"], rep["failure_examples"][:2]


def test_cover_family_audit_detects_missing_rotations():
    from covercert.audits import strip_rotations

    body = segment_2d()
    window = Ball(np.zeros(2), 1.0)
    net = build_cover_family(body, 1.0, window, 0.2)
    broken = strip_rotations(net)
    assert len(broken) < len(net)
    assert broken.certificate["fault"] == "rotation net removed"
    rep = audit_cover_family(broken, body, window, 0.2, trials=60,
                             rng=RngStream(12, 0))
    assert rep["failures"] > 0
    assert rep["failure_examples"]


@pytest.mark.parametrize("body", [BallBody(np.zeros(2), 0.3), segment_2d()],
                         ids=["ball", "segment"])
def test_cover_family_audit_fails_every_trial_on_an_empty_net(body):
    net = IsometryNet(2, 0.1, np.zeros((0, 2, 2)), np.zeros((0, 2)), {})
    rep = audit_cover_family(net, body, Ball(np.zeros(2), 1.0), 0.2, trials=7,
                             rng=RngStream(9, 0))
    assert (rep["trials"], rep["failures"], rep["pass"]) == (7, 7, False)
    assert len(rep["failure_examples"]) == 5


def _segment_nets():
    """The audit's segment net, its rotation-stripped copy, its rotations
    with three translations and a net of a few members."""
    from covercert.audits import strip_rotations

    net = build_cover_family(segment_2d(), 1.0, Ball(np.zeros(2), 1.0), 0.2)
    small = IsometryNet(2, net.delta, net.rotations[::20], net.translations[::100], {})
    assert 1 < len(small) < 20
    few = IsometryNet(2, net.delta, net.rotations, net.translations[::70], {})
    assert len(few.translations) == 3
    return {"cover": net, "stripped": strip_rotations(net), "few-translations": few,
            "small": small}


@pytest.mark.parametrize("name", ["cover", "stripped", "few-translations", "small", "3-d"])
def test_nearest_is_least_in_the_dense_proxy(monkeypatch, name):
    # the member drawn from the factors has the least rotation term
    # |A_g - A|_F and the least translation term |v_g - v| of a member by
    # member scan, so the least proxy sum, also in blocks of one placement;
    # compared by value, so ties may go either way
    if name == "3-d":  # 13,754 members of an off-centre ball base
        net = build_cover_family(BallBody(np.array([0.1, 0.0, 0.0]), 0.2), 0.6,
                                 Ball(np.zeros(3), 0.15), 0.5)
    else:
        net = _segment_nets()[name]
    mats, trans = net.members(np.arange(len(net)))
    gen = np.random.default_rng(21)
    a = haar_orthogonal(net.dim, gen, 20)
    v = gen.uniform(-0.1, 0.1, (20, net.dim))  # inside both windows
    picks = [_nearest(net, a, v)]
    with monkeypatch.context() as m:
        m.setattr(geom_core, "BLOCK_ELEMS", 1)
        picks.append(_nearest(net, a, v))
    for got in picks:
        for g, a_i, v_i in zip(got, a, v):
            rot = np.linalg.norm(mats.reshape(len(net), -1) - a_i.reshape(1, -1), axis=1)
            shift = np.linalg.norm(trans - v_i, axis=1)
            assert rot[g] <= rot.min() + 1e-12 and shift[g] <= shift.min() + 1e-12
            assert rot[g] + shift[g] <= (rot + shift).min() + 1e-12


@pytest.mark.parametrize("n, delta", [(2, 0.3), (2, 1.2), (3, 0.5), (3, 1.3)])
def test_nearest_rotation_is_the_operator_nearest(n, delta):
    # for n <= 3 and a net of delta < sqrt(2) the rotation of largest
    # <A_g, A> is the one the covering guarantee names: none lies nearer
    # to A in the operator norm
    net = build_orthogonal_net(n, delta)
    a = haar_orthogonal(n, np.random.default_rng(13), 200)
    got = net.rotations[_nearest(net, a, np.zeros((200, n)))]
    want = min_distance_to_net(a, net.rotations)
    dist = np.array([min_distance_to_net(a_i[None], g[None])[0] for a_i, g in zip(a, got)])
    assert np.allclose(dist, want, rtol=0.0, atol=1e-9)
    assert want.max() <= delta + 1e-9


@pytest.mark.parametrize("name", ["cover", "stripped", "few-translations", "small"])
def test_audit_stage_one_choice_does_not_change_the_report(monkeypatch, name):
    # stage 2 tests every member of the family for each open trial, so a
    # stage 1 that tests a far member leaves the report as it was
    net, body, window = _segment_nets()[name], segment_2d(), Ball(np.zeros(2), 1.0)
    rep = audit_cover_family(net, body, window, 0.2, trials=12, rng=RngStream(8, 0))
    calls = []

    def far(net, mats, shifts):
        calls.append(len(mats))
        return (_nearest(net, mats, shifts) + len(net) // 2) % len(net)

    monkeypatch.setattr(isometry_nets, "_nearest", far)
    assert audit_cover_family(net, body, window, 0.2, trials=12, rng=RngStream(8, 0)) == rep
    assert calls == [12]
    if name == "stripped":
        assert 0 < rep["failures"] < 12
    elif name == "cover":
        assert rep["failures"] == 0


def test_audit_stage_two_reaches_the_last_member(monkeypatch):
    # stage 1 is sent to member 0, which misses; of the five rotations
    # only the last, the identity, keeps the segment within eps, and stage
    # 2 tests one member per block here, so it must reach its last block
    rotations = np.stack([_rot(k * math.pi / 8) for k in (2, 3, 5, 6, 0)])
    window = Ball(np.array([0.1, 0.0]), 0.0)
    monkeypatch.setattr(isometry_nets, "haar_orthogonal",
                        lambda n, gen, count: np.repeat(np.eye(n)[None], count, axis=0))
    monkeypatch.setattr(isometry_nets, "_nearest",
                        lambda net, mats, shifts: np.zeros(len(mats), dtype=int))
    monkeypatch.setattr(geom_core, "BLOCK_ELEMS", 2 * AUDIT_PROBES)
    for count, failures in ((5, 0), (4, 3)):
        net = IsometryNet(2, 0.1, rotations[:count], window.center[None], {})
        rep = audit_cover_family(net, segment_2d(), window, 0.2, 3, RngStream(8, 0))
        assert rep["failures"] == failures


def _per_trial_audit(t_net, k_body, v_ball, eps, trials, rng):
    """The reference audit: one loop round per trial, with one Haar draw,
    and the whole family in one CoverFamily.contains call."""
    family = CoverFamily(k_body, eps, t_net)
    gen = rng.generator()
    failures = 0
    failure_examples = []
    base_probes = probe_points(k_body, AUDIT_PROBES, rng.child(0))
    for trial in range(trials):
        a = haar_orthogonal(k_body.dim, gen, 1)[0]
        sub = rng.child(trial + 1)
        if v_ball.radius > 0:
            v = sample_uniform_ball(k_body.dim, v_ball.radius, 1, sub)[0] + v_ball.center
        else:
            v = v_ball.center.copy()
        placed = base_probes @ a.T + v
        if not family.contains(placed).all(axis=1).any():
            failures += 1
            if len(failure_examples) < 5:
                failure_examples.append({"trial": trial, "matrix": a.tolist(),
                                         "translation": v.tolist()})
    return {"trials": int(trials), "failures": failures,
            "failure_examples": failure_examples, "pass": failures == 0}


def _audit_cases():
    """(net, base, window) of the audits checked against the reference."""
    from covercert.bodies import BallIntersectionBody

    unit = Ball(np.zeros(2), 1.0)
    cases = {name: (net, segment_2d(), unit) for name, net in _segment_nets().items()}
    empty = IsometryNet(2, 0.1, np.zeros((0, 2, 2)), np.zeros((0, 2)), {})
    cases["empty"] = (empty, segment_2d(), unit)
    cases["empty-ball"] = (empty, BallBody(np.zeros(2), 0.3), unit)
    lens = BallIntersectionBody([Ball(np.array([-0.15, 0.0]), 0.3),
                                 Ball(np.array([0.15, 0.0]), 0.3)])
    window = Ball(np.array([0.1, -0.2]), 0.5)
    cases["lens"] = (build_cover_family(lens, 0.6, window, 0.2), lens, window)
    ball = BallBody(np.zeros(2), 0.3)
    cases["ball"] = (build_cover_family(ball, 0.6, unit, 0.2), ball, unit)
    off = BallBody(np.array([0.1, 0.0]), 0.3)
    cases["off-centre-ball"] = (build_cover_family(off, 0.8, window, 0.2), off, window)
    point = Ball(np.array([0.2, -0.1]), 0.0)  # every translation is the window's centre
    cases["point-window"] = (build_cover_family(segment_2d(), 1.0, point, 0.2), segment_2d(), point)
    return cases


_AUDIT_CASES = ["cover", "stripped", "few-translations", "small", "empty", "empty-ball",
                "lens", "ball", "off-centre-ball", "point-window"]


@pytest.mark.parametrize("trials", [1, 7, 200])
@pytest.mark.parametrize("name", _AUDIT_CASES)
def test_staged_audit_equals_the_per_trial_loop(name, trials):
    net, body, window = _audit_cases()[name]
    rng = RngStream(30 + trials, 1)
    want = _per_trial_audit(net, body, window, 0.2, trials, rng)
    assert audit_cover_family(net, body, window, 0.2, trials, rng) == want
    if name.startswith("empty"):
        assert want["failures"] == trials
    elif name in ("cover", "lens", "ball", "off-centre-ball", "point-window"):
        assert want["failures"] == 0
    elif name == "stripped" and trials == 200:
        assert 0 < want["failures"] < trials


@pytest.mark.parametrize("per_chunk", [1, 3])
@pytest.mark.parametrize("name", _AUDIT_CASES)
def test_staged_audit_in_small_chunks_equals_the_per_trial_loop(monkeypatch, name, per_chunk):
    # chunks of one and of three trials; every membership batch shrinks too
    # (the reference runs first, at the full chunk: its decisions do not
    # depend on the batch, and blocks of one to three members are slow)
    net, body, window = _audit_cases()[name]
    rng = RngStream(44, 2)
    want = _per_trial_audit(net, body, window, 0.2, 7, rng)
    monkeypatch.setattr(geom_core, "BLOCK_ELEMS", per_chunk * AUDIT_PROBES * body.dim)
    assert audit_cover_family(net, body, window, 0.2, 7, rng) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_draws_and_placements_equal_single_ones(n):
    # what the batched audit relies on: k Haar draws at once are k single
    # draws from the same generator, and the stacked placement product is
    # the per-trial one, bit for bit
    for seed in range(20):
        gen = np.random.default_rng(seed)
        batch = haar_orthogonal(n, np.random.default_rng(seed), 9)
        single = np.stack([haar_orthogonal(n, gen, 1)[0] for _ in range(9)])
        assert batch.tobytes() == single.tobytes()
        probes = gen.uniform(-1.0, 1.0, (AUDIT_PROBES, n))
        shifts = gen.uniform(-1.0, 1.0, (9, n))
        stacked = probes @ batch.transpose(0, 2, 1) + shifts[:, None]
        looped = np.stack([probes @ a.T + v for a, v in zip(single, shifts)])
        assert stacked.tobytes() == looped.tobytes()


@pytest.mark.parametrize("name", ["cover", "lens", "off-centre-ball"])
def test_pair_blocks_decide_each_pair_as_contains(monkeypatch, name):
    # one probe set per pair: every block row is the member's contains row
    net, body, window = _audit_cases()[name]
    family = CoverFamily(body, 0.2, net)
    gen = np.random.default_rng(5)
    probes = gen.uniform(-0.8, 0.8, (6, 5, 2)) + window.center
    sets = gen.integers(0, 6, 300)
    members = gen.integers(0, len(net), 300)
    rows = [family.contains(p) for p in probes]  # at the full chunk, as it is faster
    monkeypatch.setattr(geom_core, "BLOCK_ELEMS", 7 * 5 * 2)
    got = np.concatenate([inside for _, inside in family.pair_blocks(probes, sets, members)])
    want = np.stack([rows[k][g] for k, g in zip(sets, members)])
    assert got.any() and not got.all()
    assert np.array_equal(got, want)


def test_cover_audit_tests_in_few_membership_calls(monkeypatch):
    # the CLI's 200-trial cover audit at seed 1001 covers each trial with its
    # nearest member: one chunk, one contains_many call per stage at most
    import covercert.bodies as bodies
    from covercert.audits import run_suite

    calls = []
    contains_many = bodies.ThickenedBody.contains_many

    def counting(self, points):
        calls.append(len(points))
        return contains_many(self, points)

    monkeypatch.setattr(bodies.ThickenedBody, "contains_many", counting)
    report = run_suite("cover", RngStream(1001, 0), 200)
    chunks = -(-200 // max(1, geom_core.BLOCK_ELEMS // (2 * AUDIT_PROBES)))
    assert report["pass"] and report["report"]["failures"] == 0
    assert 1 <= len(calls) <= chunks + 2, calls


def test_cover_family_direct_placement_guarantee():
    # independent of the audit helper: for sampled placements f = (A, v),
    # some net element g keeps g^-1(f(K)) inside the thickened body
    body = BallBody(np.zeros(2), 0.5)
    eps = 0.2
    window = Ball(np.zeros(2), 1.0)
    net = build_cover_family(body, 1.0, window, eps)
    fat = thicken(body, eps)
    gen = np.random.default_rng(14)
    boundary = np.stack([np.cos(np.linspace(0, 2 * math.pi, 24, endpoint=False)),
                         np.sin(np.linspace(0, 2 * math.pi, 24, endpoint=False))],
                        axis=1) * 0.5
    for _ in range(20):
        a = haar_orthogonal(2, gen, 1)[0]
        v = sample_uniform_ball(2, 1.0, 1, RngStream(int(gen.integers(1 << 30)), 0))[0]
        placed = boundary @ a.T + v
        # g^-1(x) = A^T (x - v) for g = (A, v)
        assert any(
            np.all(fat.contains_many((placed - v) @ a_g))
            for a_g, v in zip(*net.members(np.arange(len(net))))
        )

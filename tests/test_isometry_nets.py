"""Isometry-net tests: operator-distance formulas against brute SVD, grid
net coverage (n <= 3), translation grids, and the product cover family
with its fault-injection audit."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covercert.bodies import BallBody, thicken
from covercert.geom_core import Ball, RngStream, sample_uniform_ball
from covercert.isometry_nets import (
    Isometry,
    IsometryNet,
    audit_cover_family,
    audit_orthogonal_net,
    build_cover_family,
    build_orthogonal_net,
    build_translation_cover,
    haar_orthogonal,
    iso_distance_surrogate,
    min_distance_to_net,
    op_norm_distance,
    translation_cover_size_floor_log,
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
    g = Isometry.identity(3)
    pts = gen.normal(size=(20, 3))
    assert np.allclose(g.apply(pts), pts)
    assert np.allclose(f.inverse().apply(f.apply(pts)), pts, atol=1e-12)
    h = Isometry(haar_orthogonal(3, gen), gen.normal(size=3))
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


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_op_norm_closed_form_2d(theta, phi):
    # |R(a) - R(b)|_op = 2 |sin((a - b)/2)|
    expected = 2.0 * abs(math.sin((theta - phi) / 2.0))
    assert op_norm_distance(_rot(theta), _rot(phi)) == pytest.approx(expected,
                                                                     abs=1e-10)


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


def test_min_distance_opposite_class_is_two():
    reflector = np.diag([1.0, -1.0])
    d = min_distance_to_net(np.eye(2)[None], reflector[None])
    assert d[0] == 2.0


def test_iso_surrogate_dominates_sup_distance():
    gen = np.random.default_rng(23)
    for _ in range(25):
        f = Isometry(haar_orthogonal(3, gen), gen.normal(size=3))
        g = Isometry(haar_orthogonal(3, gen), gen.normal(size=3))
        x = sample_uniform_ball(3, 1.0, 400, RngStream(int(gen.integers(1 << 30)), 0))
        gap = np.linalg.norm(f.apply(x.points) - g.apply(x.points), axis=1)
        assert gap.max() <= iso_distance_surrogate(f, g) + 1e-9


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
    d = min_distance_to_net(worst[None], net.matrices)[0]
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
    assert np.allclose(back.matrices, net.matrices)


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
    assert len(empty) == 0 and empty.matrices.shape == (0, 2, 2)


# ---------------------------------------------------------------------------
# translation covers


def test_translation_cover_radius():
    ball = Ball(np.array([0.5, -0.5]), 1.0)
    rho = 0.17
    centers = build_translation_cover(ball, rho)
    probes = sample_uniform_ball(2, ball.radius, 500, RngStream(6, 0)).points \
        + ball.center
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
    import covercert.isometry_nets as isometry_nets

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
    import covercert.isometry_nets as isometry_nets

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
        a = haar_orthogonal(2, gen)
        v = sample_uniform_ball(2, 1.0, 1, RngStream(int(gen.integers(1 << 30)), 0)).points[0]
        placed = boundary @ a.T + v
        # g^-1(x) = A^T (x - v) for g = (A, v)
        assert any(
            np.all(fat.contains_many((placed - v) @ a_g))
            for a_g, v in zip(net.matrices, net.translations)
        )

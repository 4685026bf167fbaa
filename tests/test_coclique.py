"""Coclique machinery tests: the exact binomial tail against a rational
oracle, Chernoff dominance, hypothesis checking, greedy deletion, and the
sample-delete-test loop on a one-dimensional benchmark instance."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covercert.coclique as coclique
import covercert.geom_core as geom_core
from covercert.bodies import BallBody, Isometry, thicken, transform
from covercert.coclique import (
    CocliqueParams,
    MeasurableGraphSpec,
    build_coclique,
    check_hypotheses,
    chernoff_bound,
    chernoff_bound_log,
    edge_measure_audit,
    edge_measure_exact,
    edge_threshold,
    exact_binomial_tail,
    family_counts,
    geometric_spec,
)
from covercert.geom_core import Ball, RngStream, uniform_ball_points
from covercert.families import CoverFamily
from covercert.isometry_nets import IsometryNet, build_cover_family, haar_orthogonal


# ---------------------------------------------------------------------------
# benchmark instance: V = [0, 1], edge iff |x - y| > 0.9, ten short intervals


class Interval:
    """Membership oracle for [lo, hi] on one-dimensional point arrays."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        x = points[:, 0]
        return (x >= self.lo) & (x <= self.hi)


def interval_family():
    return [Interval(0.1 * i, 0.1 * i + 0.05) for i in range(10)]


def benchmark_spec(family=None) -> MeasurableGraphSpec:
    def sampler(gen, count):
        return gen.random((count, 1))

    def edge_matrix(points):
        x = points[:, 0]
        mat = np.abs(x[:, None] - x[None, :]) > 0.9
        np.fill_diagonal(mat, False)
        return mat

    return MeasurableGraphSpec(
        dim=1,
        sampler=sampler,
        edge_matrix=edge_matrix,
        family=interval_family() if family is None else family,
    )


BENCH_PARAMS = dict(M=50, k=1, p=0.05)
BENCH_EDGE_MEASURE = 0.01  # area of {|x - y| > 0.9} in the unit square


# ---------------------------------------------------------------------------
# exact binomial tail


def _tail_oracle(M: int, p: Fraction, t: int) -> Fraction:
    return sum(
        Fraction(math.comb(M, j)) * p**j * (1 - p) ** (M - j)
        for j in range(t, M + 1)
    )


def test_tail_matches_rational_oracle_grid():
    for M in (1, 5, 12, 28):
        for p in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 3), Fraction(49, 100)):
            for t in range(0, M + 1, max(1, M // 4)):
                want = float(_tail_oracle(M, p, t))
                got = exact_binomial_tail(M, float(p), t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=63),
       st.data())
def test_tail_matches_rational_oracle_property(M, num, data):
    # dyadic p so float(p) is the exact rational fed to both computations
    p = Fraction(num, 64)
    t = data.draw(st.integers(min_value=0, max_value=M))
    want = float(_tail_oracle(M, p, t))
    got = exact_binomial_tail(M, float(p), t)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-290)


def test_tail_matches_scipy_binom_sf():
    # binom.sf loses digits below about 1e-290 and is 0 from about 1e-283 on
    # (M = 200, p = 0.01, t = 162), where the tail is still a normal float;
    # the rational-oracle tests above cover that deep tail
    stats = pytest.importorskip("scipy.stats")
    compared = 0
    for M in (1, 5, 12, 28, 64, 200):
        for p in (1e-6, 0.01, 0.05, 0.3, 0.5, 0.9):
            for t in range(M + 1):
                want = float(stats.binom.sf(t - 1, M, p))
                if want >= 1e-250:
                    assert exact_binomial_tail(M, p, t) == pytest.approx(want, rel=1e-11), \
                        (M, p, t)
                    compared += 1
    assert compared > 1000


def test_tail_edge_identities():
    assert exact_binomial_tail(10, 0.3, 0) == 1.0
    assert exact_binomial_tail(10, 0.0, 3) == 0.0
    assert exact_binomial_tail(10, 1.0, 3) == 1.0
    assert exact_binomial_tail(10, 0.3, 10) == pytest.approx(0.3**10, rel=1e-12)
    assert exact_binomial_tail(0, 0.3, 0) == 1.0


def test_tail_monotone_in_threshold():
    vals = [exact_binomial_tail(40, 0.2, t) for t in range(41)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tail_domain():
    with pytest.raises(ValueError):
        exact_binomial_tail(10, 0.3, 11)
    with pytest.raises(ValueError):
        exact_binomial_tail(10, 1.5, 3)
    with pytest.raises(ValueError):
        exact_binomial_tail(-1, 0.3, 0)


# ---------------------------------------------------------------------------
# Chernoff bound


def test_chernoff_log_identity():
    assert chernoff_bound(50, 1, 0.05) == pytest.approx(
        math.exp((50 / 2.0) * math.log(2.0 * math.e * 0.05)), rel=1e-12
    )
    assert chernoff_bound_log(200, 5, 0.01) == pytest.approx(
        20.0 * math.log(2.0 * math.e * 5.0 * 0.01), abs=1e-12
    )


def test_chernoff_dominates_exact_tail_subgrid():
    # full grid is in the acceptance suite; spot-check the mechanism here
    for M in (10, 50, 200):
        for k in (1, 3, 5):
            for p in (0.001, 0.01, 0.05):
                if 2.0 * math.e * k * p >= 1.0:
                    continue
                t = math.ceil(M / (2.0 * k))
                assert exact_binomial_tail(M, p, t) < chernoff_bound(M, k, p)


def test_chernoff_domain():
    with pytest.raises(ValueError):
        chernoff_bound_log(0, 1, 0.05)
    with pytest.raises(ValueError):
        chernoff_bound_log(10, 1, 0.5)


# ---------------------------------------------------------------------------
# parameters and hypothesis checks


def test_params_validation_and_threshold():
    assert CocliqueParams(M=50, k=1, p=0.05).count_threshold == 25
    assert CocliqueParams(M=64, k=1, p=0.05).count_threshold == 32
    assert CocliqueParams(M=50, k=3, p=0.05).count_threshold == 9  # ceil(50/6)
    with pytest.raises(ValueError):
        CocliqueParams(M=0, k=1, p=0.05)
    with pytest.raises(ValueError):
        CocliqueParams(M=50, k=0, p=0.05)
    with pytest.raises(ValueError):
        CocliqueParams(M=50, k=1, p=0.5)
    with pytest.raises(ValueError):
        CocliqueParams(M=50, k=1, p=0.05, max_retries=0)


def test_params_warn_when_k_breaks_threshold_domain():
    # k > 1/(2p) is reported by check_hypotheses, not by the constructor
    params = CocliqueParams(M=50, k=2, p=0.4)
    r = check_hypotheses(params, 10, [0.05], 0.001)
    assert not next(c for c in r["conditions"] if c["name"] == "parameter-domain")["ok"]


def test_check_hypotheses_pass_case():
    params = CocliqueParams(**BENCH_PARAMS)
    report = check_hypotheses(params, family_size=10,
                              nu_Y_bounds=[0.05] * 10,
                              edge_measure=BENCH_EDGE_MEASURE)
    assert report["pass"]
    by_name = {c["name"]: c for c in report["conditions"]}
    assert by_name["member-measure"]["margin"] == pytest.approx(0.0, abs=1e-15)
    assert by_name["family-size"]["margin_log"] > 0.0
    assert by_name["edge-measure"]["margin"] == pytest.approx(0.0, abs=1e-15)


def test_check_hypotheses_failures_reported_not_raised():
    params = CocliqueParams(**BENCH_PARAMS)
    r = check_hypotheses(params, 10, [0.2], BENCH_EDGE_MEASURE)
    assert not r["pass"]
    assert not next(c for c in r["conditions"] if c["name"] == "member-measure")["ok"]
    r = check_hypotheses(params, 10**15, [0.05], BENCH_EDGE_MEASURE)
    assert not next(c for c in r["conditions"] if c["name"] == "family-size")["ok"]
    r = check_hypotheses(params, 10, [0.05], 0.2)
    assert not next(c for c in r["conditions"] if c["name"] == "edge-measure")["ok"]
    bad = CocliqueParams(M=50, k=2, p=0.4)
    r = check_hypotheses(bad, 10, [0.05], 0.001)
    assert not next(c for c in r["conditions"] if c["name"] == "parameter-domain")["ok"]


def test_check_hypotheses_empty_family():
    params = CocliqueParams(**BENCH_PARAMS)
    r = check_hypotheses(params, 0, [], BENCH_EDGE_MEASURE)
    by_name = {c["name"]: c for c in r["conditions"]}
    assert by_name["member-measure"]["margin"] == math.inf
    assert by_name["family-size"]["margin_log"] == math.inf
    assert r["pass"]


# ---------------------------------------------------------------------------
# counting helpers


def _members(family: CoverFamily) -> list:
    """The same family built member by member, for the generic
    contains_many loop of family_counts."""
    fat = thicken(family.base, family.eps)
    net = family.net
    return [transform(fat, Isometry(m, v))
            for m, v in zip(*net.members(np.arange(len(net))))]


def _random_net(gen, n: int, rotations: int, translations: int) -> IsometryNet:
    return IsometryNet(n, 0.1, haar_orthogonal(n, gen, rotations),
                       gen.normal(size=(translations, n)), {})


def test_family_counts_fast_path_matches_generic():
    gen = np.random.default_rng(31)
    family = CoverFamily(BallBody(gen.normal(size=3), 0.8), 0.3, _random_net(gen, 3, 4, 3))
    assert family.centers is not None  # ball base: the centre-array path
    pts = gen.normal(size=(400, 3))
    members = _members(family)
    assert np.array_equal(family_counts(family, pts), family_counts(members, pts))
    assert np.array_equal(family.contains(pts), np.array([m.contains_many(pts) for m in members]))
    assert np.array_equal(family.counts(pts), family.contains(pts).sum(axis=1))


def test_family_counts_chunked(monkeypatch):
    gen = np.random.default_rng(32)
    family = CoverFamily(BallBody(np.zeros(2), 0.7), 0.3, _random_net(gen, 2, 3, 3))
    pts = gen.normal(size=(50, 2))
    whole_counts, whole_masks = family.counts(pts), family.contains(pts)
    # 3 * 50 + 1 pairs per block: three members per block, the last block short
    monkeypatch.setattr(geom_core, "BLOCK_ELEMS", 151)
    assert np.array_equal(family.counts(pts), whole_counts)
    assert np.array_equal(family.contains(pts), whole_masks)
    assert np.array_equal(whole_counts, family_counts(_members(family), pts))


@pytest.mark.parametrize("budget", [None, 7 * 40 + 3], ids=["whole", "chunked"])
def test_cover_family_segment_matches_generic(monkeypatch, budget):
    from covercert.audits import segment_body

    body = segment_body()
    net = build_cover_family(body, 1.0, Ball(np.zeros(2), 0.4), 0.4)
    family = CoverFamily(body, 0.4, net)
    assert family.centers is None and net.certificate["rotation_count"] > 1
    if budget is not None:
        # seven members per stacked batch; the net size is not a multiple of 7
        assert len(net) % 7
        monkeypatch.setattr(geom_core, "BLOCK_ELEMS", 2 * budget)  # mapped points in R^2
    pts = np.random.default_rng(34).uniform(-0.9, 0.9, size=(40, 2))
    members = _members(family)
    masks = family.contains(pts)
    assert np.array_equal(masks, np.array([m.contains_many(pts) for m in members]))
    assert np.array_equal(family_counts(family, pts), family_counts(members, pts))
    assert 0 < masks.sum() < masks.size


def test_family_counts_degenerate():
    assert family_counts([], np.zeros((5, 2))).shape == (0,)
    out = family_counts([BallBody(np.zeros(2), 1.0)], np.empty((0, 2)))
    assert out.tolist() == [0]


def test_membership_matrix_consistency():
    gen = np.random.default_rng(33)
    family = interval_family()
    pts = gen.random((200, 1))
    mat = np.array([m.contains_many(pts) for m in family])
    assert mat.shape == (10, 200)
    assert np.array_equal(mat.sum(axis=1), family_counts(family, pts))


# ---------------------------------------------------------------------------
# greedy deletion


def _as_edge_matrix(pairs, m):
    mat = np.zeros((m, m), dtype=bool)
    for i, j in pairs:
        mat[i, j] = mat[j, i] = True
    return mat


def test_greedy_delete_hand_cases():
    # path 0-1-2: the middle vertex has degree 2 and goes first
    keep = coclique._greedy_delete(_as_edge_matrix([(0, 1), (1, 2)], 3))
    assert keep.tolist() == [True, False, True]
    # two disjoint edges: ties broken by index
    keep = coclique._greedy_delete(_as_edge_matrix([(0, 1), (2, 3)], 4))
    assert keep.tolist() == [False, True, False, True]
    # edgeless graph: nothing deleted
    keep = coclique._greedy_delete(np.zeros((5, 5), dtype=bool))
    assert keep.all()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10**6))
def test_greedy_delete_yields_coclique(m, seed):
    gen = np.random.default_rng(seed)
    mat = gen.random((m, m)) < 0.3
    mat = np.triu(mat, 1)
    mat = mat | mat.T
    keep = coclique._greedy_delete(mat)
    sub = mat[np.ix_(keep, keep)]
    assert not sub.any()
    assert keep.sum() >= m - int(np.triu(mat, 1).sum())  # one deletion per edge


# ---------------------------------------------------------------------------
# build_coclique on the benchmark


def test_benchmark_success_and_reverification():
    spec = benchmark_spec()
    params = CocliqueParams(**BENCH_PARAMS)
    result = build_coclique(spec, params, RngStream(2026, 0))
    assert result.success
    x = result.X
    assert len(x) >= params.M // 2
    # re-verify independently of the library's own counting
    vals = x[:, 0]
    gaps = np.abs(vals[:, None] - vals[None, :])
    assert gaps.max() <= 0.9 + 1e-12  # coclique: no far pair survives
    for i, member in enumerate(spec.family):
        count = int(np.count_nonzero(member.contains_many(x)))
        assert count == result.per_Y_counts[i]
        assert count < params.count_threshold
    assert result.rule == "per-member-counts"
    assert result.diagnostics["count_threshold"] == 25


def test_benchmark_deterministic():
    spec = benchmark_spec()
    params = CocliqueParams(**BENCH_PARAMS)
    a = build_coclique(spec, params, RngStream(7, 3))
    b = build_coclique(spec, params, RngStream(7, 3))
    assert a.success == b.success
    assert np.array_equal(a.X, b.X)
    assert a.retries_used == b.retries_used


def test_benchmark_hypotheses_satisfied_by_construction():
    params = CocliqueParams(**BENCH_PARAMS)
    # each interval has Lebesgue measure 0.05 = p exactly; the edge strip
    # {|x - y| > 0.9} has product measure exactly (0.1)^2 = 0.01 <= 1/(2M)
    report = check_hypotheses(params, 10, [0.05] * 10, BENCH_EDGE_MEASURE)
    assert report["pass"]


def test_adversarial_whole_space_member_fails():
    spec = benchmark_spec(family=[Interval(0.0, 1.0)])
    params = CocliqueParams(M=50, k=1, p=0.05, max_retries=4)
    result = build_coclique(spec, params, RngStream(0, 0))
    assert not result.success
    assert result.retries_used == 4
    assert result.diagnostics["note"] == "retries exhausted"
    # the universal member always holds every survivor
    assert result.per_Y_counts[0] == len(result.X)


def test_custom_accept_rule():
    spec = benchmark_spec()
    params = CocliqueParams(M=50, k=1, p=0.05, max_retries=8)
    greedy_all = build_coclique(spec, params, RngStream(1, 0),
                                accept=lambda x, counts: True)
    assert greedy_all.success and greedy_all.retries_used == 0
    assert greedy_all.rule == "custom-accept"
    never = build_coclique(spec, params, RngStream(1, 0),
                           accept=lambda x, counts: False)
    assert not never.success
    assert never.retries_used == 8


def test_edge_overflow_gate():
    def sampler(gen, count):
        return gen.random((count, 1))

    def all_edges(points):
        m = np.ones((len(points), len(points)), dtype=bool)
        np.fill_diagonal(m, False)
        return m

    spec = MeasurableGraphSpec(dim=1, sampler=sampler, edge_matrix=all_edges,
                               family=[Interval(0.0, 1.0)])
    params = CocliqueParams(M=10, k=1, p=0.05, max_retries=3)
    result = build_coclique(spec, params, RngStream(0, 0))
    assert not result.success
    assert all(a["outcome"] == "edge-overflow" for a in result.diagnostics["attempts"])
    assert len(result.X) == 0


def test_spec_shape_validation():
    bad = MeasurableGraphSpec(dim=2, sampler=lambda g, c: np.zeros((c, 1)),
                              edge_matrix=lambda p: np.zeros((len(p), len(p)), bool),
                              family=[])
    with pytest.raises(ValueError):
        bad.sample(np.random.default_rng(0), 5)


def test_spec_edge_scalar_consistency():
    mat = benchmark_spec().edge_matrix(np.array([[0.0], [0.95], [0.85]]))
    assert mat[0, 1] and mat[1, 0]
    assert not mat[0, 2] and not mat[2, 0]


# ---------------------------------------------------------------------------
# geometric spec and the edge-measure audit


def test_geometric_spec_threshold():
    spec = geometric_spec(2, 1.0, math.pi / 3.0)
    assert edge_threshold(1.0, math.pi / 3.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    pair = spec.edge_matrix(np.array([[0.0, 0.0], [1.7321, 0.0], [1.7320, 0.0]]))
    assert pair[0, 1] and not pair[0, 2]
    pts = spec.sample(RngStream(3, 0).generator(), 200)
    assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-12
    mat = spec.edge_matrix(pts)
    assert not mat.diagonal().any()
    assert np.array_equal(mat, mat.T)


def test_geometric_spec_unit_diameter_gate():
    # 2 r cos(alpha/2) = 1 exactly at alpha = 2 arccos(1/(2r))
    r = 0.55
    alpha = 2.0 * math.acos(1.0 / (2.0 * r))
    geometric_spec(2, r, alpha, unit_diameter=True)
    assert edge_threshold(r, alpha) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        geometric_spec(2, 0.8, 0.5, unit_diameter=True)
    with pytest.raises(ValueError):
        geometric_spec(2, 0.55, math.pi / 2.0)


def test_edge_measure_audit_small():
    rep = edge_measure_audit(2, 1.0, trials=4000, rng=RngStream(11, 0), anchors=5)
    assert rep["pass"], rep
    assert len(rep["anchors"]) == 5
    origin = rep["anchors"][0]
    assert origin["anchor_norm"] == 0.0
    assert origin["far_fraction"] == 0.0  # threshold exceeds any |y|
    with pytest.raises(ValueError):
        edge_measure_audit(2, math.pi / 2.0, 100, RngStream(0, 0))
    with pytest.raises(ValueError):
        edge_measure_audit(2, 1.0, 100, RngStream(0, 0), anchors=1)
    with pytest.raises(ValueError):
        edge_measure_audit(2.5, 1.0, 100, RngStream(1, 0), anchors=3)  # once reported n = 2


# (r, threshold): the witness defaults, the n = 4 regime, and a threshold
# below r, where a constant far measure 1 - (threshold/r)^n is added
EDGE_CELLS = [(0.55, 1.0), (0.62, 1.0), (0.6, 0.5)]


@pytest.mark.parametrize("n", range(2, 7))
def test_edge_measure_exact_matches_monte_carlo(n):
    samples = 10**5
    for cell, (r, threshold) in enumerate(EDGE_CELLS):
        exact = edge_measure_exact(n, r, threshold)
        gen = RngStream(50 + n, cell).generator()
        xs = uniform_ball_points(gen, n, r, samples)
        ys = uniform_ball_points(gen, n, r, samples)
        hat = float(np.count_nonzero(np.linalg.norm(xs - ys, axis=1) >= threshold)) / samples
        sigma = math.sqrt(exact * (1.0 - exact) / samples)
        assert abs(hat - exact) <= 4.0 * sigma, (r, threshold, hat, exact)


@pytest.mark.parametrize("n", range(2, 7))
def test_edge_measure_rule_has_converged(n):
    nodes = coclique.EDGE_MEASURE_NODES
    for r, threshold in EDGE_CELLS + [(0.6, 0.6), (0.5, 0.9999)]:
        assert abs(edge_measure_exact(n, r, threshold)
                   - edge_measure_exact(n, r, threshold, nodes=4 * nodes)) <= 1e-9


def test_edge_measure_exact_limits():
    # no pair of r B_n is 2r apart or more; every pair is at least 0 apart
    assert edge_measure_exact(3, 0.5, 1.0) == 0.0
    assert edge_measure_exact(3, 0.5, 2.0) == 0.0
    assert edge_measure_exact(3, 0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)

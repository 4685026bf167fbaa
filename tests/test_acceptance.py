"""Acceptance gate: ten desk-scale criteria, one printed verdict line each.

Every test prints `ACCEPTANCE NN name: PASS/FAIL (detail)` before asserting,
so a full run always shows the complete scoreboard. Seeds, grids, and
tolerances are pinned; each criterion also carries a runtime budget that the
suite as a whole respects by construction (vectorized checks, desk-scale
sample counts).
"""

import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from covercert.bounds import (
    IntervalUnion,
    borsuk_piece_bound,
    choose_alpha,
    cone_constants,
    cone_negative_control,
    ConeSpec,
    main_inequality,
    proof_pipeline_budget,
    theorem_lower_bound,
    thickening_budget,
    verify_cone_inclusion,
    verify_sweep_inequality,
)
from covercert.audits import segment_body, strip_rotations
from covercert.cli import main, verify_witness_certificate
from covercert.coclique import (
    CocliqueParams,
    MeasurableGraphSpec,
    build_coclique,
    chernoff_bound,
    check_hypotheses,
    edge_measure_audit,
    exact_binomial_tail,
)
from covercert.geom_core import (
    Ball,
    RngStream,
    cap_measure_bounds,
    cap_measure_exact,
    diameter,
    jung_radius,
    min_enclosing_ball,
    regular_simplex,
    sample_uniform_ball,
    sample_uniform_sphere,
)
from covercert.isometry_nets import audit_cover_family, build_cover_family


def report(capsys, idx: int, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"ACCEPTANCE {idx:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------


def test_01_cap_sandwich(capsys):
    # strict sandwich on the full (n, alpha) grid
    alphas = np.linspace(0.05, math.pi / 2.0 - 0.05, 52)[1:-1]
    worst = math.inf
    cells = 0
    for n in range(2, 101):
        for alpha in alphas:
            lo, hi = cap_measure_bounds(n, float(alpha))
            m = cap_measure_exact(n, float(alpha))
            worst = min(worst, m - lo, hi - m)
            cells += 1
    strict_ok = worst > 0.0

    # Monte Carlo agreement on the sphere at two pinned cells
    mc_ok = True
    mc_detail = []
    for i, (n, alpha) in enumerate([(3, math.pi / 3.0), (10, 1.0)]):
        dirs = sample_uniform_sphere(n, RngStream(101, i), 10**6)
        p_hat = float(np.mean(dirs[:, 0] >= math.cos(alpha)))
        m = cap_measure_exact(n, alpha)
        sigma = math.sqrt(m * (1.0 - m) / 10**6)
        mc_ok &= abs(p_hat - m) <= 3.0 * sigma
        mc_detail.append(f"{abs(p_hat - m) / sigma:.2f} sigma")
    ok = strict_ok and mc_ok
    report(capsys, 1, "cap-sandwich", ok,
           f"{cells} grid cells strict, min gap {worst:.3e}; "
           f"MC at {', '.join(mc_detail)}")
    assert strict_ok, f"sandwich not strict somewhere: min gap {worst}"
    assert mc_ok, f"MC deviations {mc_detail}"


def test_02_jung_tightness(capsys):
    simplex_errs = []
    for n in range(1, 11):
        ball = min_enclosing_ball(regular_simplex(n), tol=1e-8)
        simplex_errs.append(abs(ball.radius - jung_radius(n)))
    simplex_ok = max(simplex_errs) <= 1e-6

    r6 = jung_radius(6)
    stream = RngStream(102, 0)
    worst = 0.0
    for trial in range(1000):
        pts = sample_uniform_ball(6, 1.0, 16, stream.child(trial))
        pts = pts / diameter(pts)
        ball = min_enclosing_ball(pts, tol=1e-8)
        worst = max(worst, ball.radius)
    clouds_ok = worst <= r6 + 1e-6
    ok = simplex_ok and clouds_ok
    report(capsys, 2, "jung-tightness", ok,
           f"simplex err <= {max(simplex_errs):.2e} for n in 1..10; "
           f"1000 clouds max radius {worst:.9f} vs r_6 = {r6:.9f}")
    assert simplex_ok, f"simplex errors {simplex_errs}"
    assert clouds_ok, f"cloud radius {worst} exceeds {r6} + 1e-6"


def test_03_chernoff_dominance(capsys):
    p_grid = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)
    violations = 0
    checked = 0
    for M, k, p in itertools.product(range(1, 201), range(1, 6), p_grid):
        if 2.0 * math.e * k * p >= 1.0:
            continue
        t = math.ceil(M / (2.0 * k))
        checked += 1
        if not exact_binomial_tail(M, p, t) < chernoff_bound(M, k, p):
            violations += 1
    ok = violations == 0 and checked > 0
    report(capsys, 3, "tail-dominance", ok,
           f"{checked} grid points, {violations} violations")
    assert ok


def test_04_sweep_exactness(capsys):
    rep = verify_sweep_inequality(trials=1000, rng=RngStream(104, 0))
    ok = rep["pass"] and rep["violations"] == 0 and rep["max_excess"] <= 1e-12
    report(capsys, 4, "sweep-exactness", ok,
           f"{rep['trials']} random interval unions, "
           f"{rep['violations']} violations, max excess {rep['max_excess']:.3e}")
    assert ok, rep


def test_05_cone_inclusion(capsys):
    grid = [(math.pi / 6.0, 0.5), (math.pi / 6.0, 1.5),
            (math.pi / 3.0, 0.5), (math.pi / 3.0, 1.5),
            (1.3, 0.5), (1.3, 1.5)]
    cells = 0
    violations = 0
    stream = 0
    for n in (2, 3):
        for alpha, ell in grid:
            eps0 = cone_constants(alpha, ell).eps0
            cone = ConeSpec(np.zeros(n), np.eye(n)[0], alpha, ell)
            for frac in (0.3, 0.8):
                rep = verify_cone_inclusion(n, cone, frac * eps0,
                                            probes=10**4,
                                            rng=RngStream(105, stream))
                stream += 1
                cells += 1
                violations += rep["violations"]
    positive_ok = violations == 0

    neg_hits = []
    for n in (2, 3):
        for alpha, ell in grid:
            cone = ConeSpec(np.zeros(n), np.eye(n)[0], alpha, ell)
            rep = cone_negative_control(n, cone, probes=10**4,
                                        rng=RngStream(105, stream),
                                        eps_factor=1.5)
            stream += 1
            neg_hits.append(rep["violations"])
    negative_ok = all(v >= 1 for v in neg_hits)
    ok = positive_ok and negative_ok
    report(capsys, 5, "cone-inclusion", ok,
           f"{cells} cells x 10^4 probes, {violations} violations; "
           f"negative controls min hits {min(neg_hits)}")
    assert positive_ok, f"{violations} violations on the positive grid"
    assert negative_ok, f"negative control hit counts {neg_hits}"


def test_06_edge_measure(capsys):
    cells = 0
    failed = []
    origin_ok = True
    for i, (n, alpha) in enumerate(itertools.product(range(2, 9),
                                                     (0.8, 1.0, 1.2, 1.4))):
        rep = edge_measure_audit(n, alpha, trials=10**5,
                                 rng=RngStream(106, i), anchors=20)
        cells += 1
        if not rep["pass"]:
            failed.append((n, alpha))
        origin = rep["anchors"][0]
        origin_ok &= origin["far_fraction"] == 0.0 and origin["origin_exact_zero"]
    ok = not failed and origin_ok
    report(capsys, 6, "edge-measure", ok,
           f"{cells} cells x 20 anchors x 10^5 samples, "
           f"failed cells {failed or 'none'}, origin exactly zero: {origin_ok}")
    assert not failed, failed
    assert origin_ok


def _benchmark_spec():
    class Interval:
        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi

        def contains_many(self, points):
            x = points[:, 0]
            return (x >= self.lo) & (x <= self.hi)

    def sampler(gen, count):
        return gen.random((count, 1))

    def edge_matrix(points):
        x = points[:, 0]
        mat = np.abs(x[:, None] - x[None, :]) > 0.9
        np.fill_diagonal(mat, False)
        return mat

    family = [Interval(0.1 * i, 0.1 * i + 0.05) for i in range(10)]
    return MeasurableGraphSpec(dim=1, sampler=sampler,
                               edge_matrix=edge_matrix, family=family)


def test_07_coclique_contract(capsys):
    spec = _benchmark_spec()
    params = CocliqueParams(M=50, k=1, p=0.05, max_retries=64)
    hyp = check_hypotheses(params, len(spec.family), [0.05] * 10, 0.01)
    threshold = params.count_threshold
    successes = 0
    max_retries_used = 0
    reverified = 0
    for seed in range(100):
        result = build_coclique(spec, params, RngStream(107, seed))
        if not result.success:
            continue
        successes += 1
        max_retries_used = max(max_retries_used, result.retries_used)
        x = result.X[:, 0]
        coclique_ok = np.abs(x[:, None] - x[None, :]).max() <= 0.9 + 1e-12
        size_ok = len(x) >= params.M // 2
        masks = [m.contains_many(result.X) for m in spec.family]
        counts_ok = all(int(m.sum()) < threshold for m in masks)
        # exhaustive non-coverage over all k-subsets of the family (k = 1)
        subsets_ok = all(
            not np.logical_or.reduce([masks[i] for i in sub]).all()
            for sub in itertools.combinations(range(10), params.k)
        )
        if coclique_ok and size_ok and counts_ok and subsets_ok:
            reverified += 1
    ok = hyp["pass"] and successes == 100 and reverified == 100
    report(capsys, 7, "coclique-contract", ok,
           f"hypotheses pass: {hyp['pass']}; {successes}/100 runs succeeded "
           f"(max retries {max_retries_used}), {reverified}/100 re-verified")
    assert hyp["pass"]
    assert successes == 100
    assert reverified == 100


def test_08_cover_family(capsys):
    segment = segment_body()
    window = Ball(np.zeros(2), 1.0)
    family = build_cover_family(segment, 1.0, window, eps=0.2)
    audit = audit_cover_family(family, segment, window, eps=0.2,
                               trials=1000, rng=RngStream(108, 1))
    positive_ok = audit["pass"] and audit["failures"] == 0

    stripped = strip_rotations(family)
    fault = audit_cover_family(stripped, segment, window, eps=0.2,
                               trials=1000, rng=RngStream(108, 2))
    fault_ok = fault["failures"] > 0
    ok = positive_ok and fault_ok
    report(capsys, 8, "cover-family", ok,
           f"1000 placements covered (net size {len(family)}); "
           f"rotation removal detected with {fault['failures']} failures")
    assert positive_ok, audit
    assert fault_ok, fault


def test_09_witness_replay(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in paths:
            codes.append(main(["witness", "--seed", "2", "--out", str(p)]))
    cert = json.loads(paths[0].read_text())
    verdict_ok = codes == [0, 0] and cert["verdict"] is True
    replay_ok = paths[0].read_bytes() == paths[1].read_bytes()
    verification = verify_witness_certificate(cert)
    verify_ok = verification["pass"]
    ok = verdict_ok and replay_ok and verify_ok
    report(capsys, 9, "witness-replay", ok,
           f"verdict {cert['verdict']}, "
           f"{len(cert['X']['points'])} witness points, diam {cert['diam_X']:.6f}; "
           f"replay byte-identical: {replay_ok}; re-verification: {verify_ok}")
    assert verdict_ok, codes
    assert replay_ok
    assert verify_ok, verification


def test_10_bound_evaluators(capsys):
    # finiteness across the log grid
    finite_ok = True
    for n in (2, 10, 100, 10**3, 10**4, 10**5, 10**6):
        values = [theorem_lower_bound(n), borsuk_piece_bound(n)]
        values.extend(v for v in proof_pipeline_budget(n).quantities.values()
                      if isinstance(v, float))
        values.extend(v for v in choose_alpha(n, 2.6).quantities.values()
                      if isinstance(v, float))
        r = 0.9 * jung_radius(n)
        values.extend(v for v in main_inequality(n, r, 1.0).quantities.values()
                      if isinstance(v, float))
        finite_ok &= all(math.isfinite(v) for v in values)

    # direct-arithmetic cross-checks at small n
    worst_rel = 0.0
    for n in range(2, 21):
        r_n = jung_radius(n)
        vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
        direct = math.exp(-math.sqrt(1.25 * n * math.log(n))) * vol * r_n**n
        worst_rel = max(worst_rel, abs(math.exp(theorem_lower_bound(n)) / direct - 1.0))
        direct_borsuk = direct / (vol * 0.5**n)
        worst_rel = max(worst_rel,
                        abs(math.exp(borsuk_piece_bound(n)) / direct_borsuk - 1.0))
        q = proof_pipeline_budget(n).quantities
        direct_v = vol * (1.0 - 1.0 / math.sqrt(2.0)) ** n
        worst_rel = max(worst_rel, abs(q["v_n"] / direct_v - 1.0))
        worst_rel = max(worst_rel,
                        abs(q["diam_bound"] / (2.0 * (1.0 + direct_v) / direct_v) - 1.0))
        big = (n ** (n * n * (n + 3))) * (27500 * 5**n) ** (2 * n * (n + 1))
        log_big = (math.log(float(Fraction(big, 2 ** big.bit_length())))
                   + big.bit_length() * math.log(2.0))
        worst_rel = max(worst_rel, abs(4.0 * q["log_T_product"] / log_big - 1.0))
        worst_rel = max(worst_rel,
                        abs(q["log_T_target"] / (n**3 * math.log(n) - math.log(2.0))
                            - 1.0))
        mi = main_inequality(n, 0.9 * r_n, 0.3).quantities
        direct_rhs = 0.9**n * float(n) ** (-4.0 * mi["m_alpha_exact"] * n**3)
        worst_rel = max(worst_rel,
                        abs(math.exp(mi["log_rhs_exact"]) / direct_rhs - 1.0))
        ca = choose_alpha(n, 2.6).quantities
        worst_rel = max(worst_rel,
                        abs(ca["final_exponent_log"]
                            / -math.sqrt(1.3 * n * math.log(n)) - 1.0))
        direct_c = 4.0 * ca["m_alpha"] * n**2.6 * math.sqrt(math.log(n))
        worst_rel = max(worst_rel, abs(ca["fitted_c"] / direct_c - 1.0))
    direct_ok = worst_rel <= 1e-9

    # asymptote ratio trend
    deviations = [abs(choose_alpha(n, 3.0).quantities["cos_ratio"] - 1.0)
                  for n in (10**2, 10**3, 10**4, 10**5)]
    trend_ok = all(a > b for a, b in zip(deviations, deviations[1:]))
    trend_ok &= deviations[-1] < 0.05

    # the 5/2 threshold flag
    at = choose_alpha(1000, 2.5).quantities
    above = choose_alpha(1000, 2.500001).quantities
    flag_ok = (not at["lambda_above_threshold"]
               and at["threshold_note"] == "boundary: lambda > 5/2 required"
               and above["lambda_above_threshold"])

    ok = finite_ok and direct_ok and trend_ok and flag_ok
    report(capsys, 10, "bound-evaluators", ok,
           f"finite to n = 10^6: {finite_ok}; direct cross-check worst rel "
           f"{worst_rel:.2e}; ratio deviation at 10^5 = {deviations[-1]:.4f}; "
           f"boundary flag at 2.5: {flag_ok}")
    assert finite_ok
    assert direct_ok, worst_rel
    assert trend_ok, deviations
    assert flag_ok

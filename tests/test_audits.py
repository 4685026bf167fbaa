"""jung_check bounds every cloud and solves only those that can set the
largest radius: its reports must equal a solve of every cloud, bit for bit."""

import numpy as np
import pytest

import covercert.audits as audits
from covercert.geom_core import RngStream, diameter, min_enclosing_ball, sample_uniform_ball


def _every_cloud_solved(n, rng, clouds, cloud_size, tol):
    """jung_check's clouds report, each cloud solved exactly."""
    solver_tol = min(1e-8, tol / 10.0)
    max_radius = 0.0
    for trial in range(clouds):
        pts = audits.sample_uniform_ball(n, 1.0, cloud_size, rng.child(trial))
        d = diameter(pts)
        if d > 0.0:
            max_radius = max(max_radius, min_enclosing_ball(pts / d, tol=solver_tol).radius)
    return {"trials": clouds, "max_radius": max_radius,
            "ok": max_radius <= audits.jung_radius(n) + tol}


def _degenerate(n, radius, count, rng):
    """Uniform draws made degenerate by stream: every third cloud repeats
    its first half, every third lies on a line, and one in seven has all
    its points at one place (diameter 0, skipped)."""
    pts = sample_uniform_ball(n, radius, count, rng)
    if rng.stream_id % 7 == 0:
        return np.repeat(pts[:1], count, axis=0)
    if rng.stream_id % 3 == 0:
        pts[count - count // 2:] = pts[:count // 2]
    elif rng.stream_id % 3 == 1:
        pts = pts[:, :1] * pts[-1] + pts[0]
    return pts


# Points copied from one draw can get a diameter of about 1e-8 from rounding
# instead of 0; the cloud rescaled by it may leave min_enclosing_ball
# uncertified. Its radius is then far below the maximum either way.
@pytest.mark.filterwarnings("ignore:min_enclosing_ball stopped:RuntimeWarning")
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("cloud_size", [2, 3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_pruned_jung_check_equals_every_cloud_solved(monkeypatch, n, cloud_size, tol):
    rng = RngStream(40 + n, 0)
    for sampler in (sample_uniform_ball, _degenerate):
        monkeypatch.setattr(audits, "sample_uniform_ball", sampler)
        want = _every_cloud_solved(n, rng, 30, cloud_size, tol)
        for batch_elems in (1 << 19, 5 * cloud_size * n):  # one batch; six, maximum carried
            monkeypatch.setattr(audits, "_JUNG_BATCH_ELEMS", batch_elems)
            got = audits.jung_check(n, rng, 30, cloud_size, tol)["clouds"]
            assert got == want and repr(got["max_radius"]) == repr(want["max_radius"])


def test_jung_check_solves_a_handful(monkeypatch):
    # the benchmark's jung-check call: the simplex and 4 of the 300 clouds
    # are solved; more than 8 solves means the bound or its order regressed
    calls = []

    def counting(points, tol):
        calls.append(len(points))
        return min_enclosing_ball(points, tol=tol)

    monkeypatch.setattr(audits, "min_enclosing_ball", counting)
    report = audits.jung_check(6, RngStream(1001, 0), 300, 16, 1e-6)
    assert report["clouds"]["max_radius"] == 0.5758765903612181
    assert len(calls) <= 8, len(calls)

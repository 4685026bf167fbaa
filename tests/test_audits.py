"""jung_check bounds every cloud and solves only those that can set the
largest radius: its reports must equal a solve of every cloud, bit for bit."""

import numpy as np
import pytest

import covercert.audits as audits
import covercert.geom_core as geom_core
from covercert.geom_core import RngStream, diameter, min_enclosing_ball, sample_uniform_balls


def _every_cloud_solved(n, rng, clouds, cloud_size, tol):
    """jung_check's clouds report, each cloud solved exactly."""
    solver_tol = min(1e-8, tol / 10.0)
    max_radius = 0.0
    for trial in range(clouds):
        pts = audits.sample_uniform_balls(n, 1.0, cloud_size, [rng.child(trial)])[0]
        d = diameter(pts)
        if d > 0.0:
            max_radius = max(max_radius, min_enclosing_ball(pts / d, tol=solver_tol).radius)
    return {"trials": clouds, "max_radius": max_radius,
            "ok": max_radius <= audits.jung_radius(n) + tol}


def _degenerate(n, radius, count, streams):
    """Uniform draws made degenerate by stream: every third cloud repeats
    its first half, every third lies on a line, and one in seven has all
    its points at one place (diameter 0, skipped)."""
    clouds = sample_uniform_balls(n, radius, count, streams)
    for pts, rng in zip(clouds, streams):
        if rng.stream_id % 7 == 0:
            pts[:] = pts[0]
        elif rng.stream_id % 3 == 0:
            pts[count - count // 2:] = pts[:count // 2]
        elif rng.stream_id % 3 == 1:
            pts[:] = pts[:, :1] * pts[-1] + pts[0]
    return clouds


# Points copied from one draw can get a diameter of about 1e-8 from rounding
# instead of 0; rescaled by it, they are still one point repeated, which
# min_enclosing_ball certifies at radius 0.
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("cloud_size", [2, 3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_pruned_jung_check_equals_every_cloud_solved(monkeypatch, n, cloud_size, tol):
    rng = RngStream(40 + n, 0)
    for sampler in (sample_uniform_balls, _degenerate):
        monkeypatch.setattr(audits, "sample_uniform_balls", sampler)
        want = _every_cloud_solved(n, rng, 30, cloud_size, tol)
        for batch_elems in (1 << 19, 5 * cloud_size * n):  # one batch; six, maximum carried
            monkeypatch.setattr(geom_core, "BLOCK_ELEMS", batch_elems)
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


def test_jung_check_skips_coincident_clouds(monkeypatch):
    # in R^10 the diameter of 16 copies of one point can round to about
    # 1e-8; such a cloud is skipped by an exact test, not rescaled by 1e8
    n, cloud_size, rng = 10, 16, RngStream(32, 0)
    monkeypatch.setattr(audits, "sample_uniform_balls", _degenerate)
    coincident = [t for t in range(60) if rng.child(t).stream_id % 7 == 0]
    assert any(diameter(_degenerate(n, 1.0, cloud_size, [rng.child(t)])[0]) > 0.0
               for t in coincident)
    bounded = []
    enclosing_radius_ceilings = audits.enclosing_radius_ceilings

    def ceilings(stack, tol):
        bounded.extend(stack)
        return enclosing_radius_ceilings(stack, tol)

    monkeypatch.setattr(audits, "enclosing_radius_ceilings", ceilings)
    report = audits.jung_check(n, rng, 60, cloud_size, 1e-6)
    assert len(bounded) == 60 - len(coincident)
    assert not any((cloud == cloud[0]).all() for cloud in bounded)
    assert report["clouds"] == _every_cloud_solved(n, rng, 60, cloud_size, 1e-6)


@pytest.mark.parametrize("tol", [1e-15, 0.0, -1.0, float("nan"), float("inf")])
def test_jung_check_refuses_a_tol_its_pruning_cannot_take(monkeypatch, tol):
    # below TOL_FLOOR a solve may stop uncertified, and the pruning is
    # proven for certified solves only: jung_check itself refuses such a
    # tol, before it draws a cloud or solves the simplex
    def no_solve(*args, **kwargs):
        raise AssertionError("solved or drew before checking tol")

    monkeypatch.setattr(audits, "sample_uniform_balls", no_solve)
    monkeypatch.setattr(audits, "min_enclosing_ball", no_solve)
    with pytest.raises(ValueError, match="^tol must be finite and at least 1e-12: "):
        audits.jung_check(3, RngStream(1, 0), 10, 4, tol)

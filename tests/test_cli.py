"""Command-line surface: exit codes, canonical JSON output, certificate
round trips, and the audit suites at reduced sample counts.

Output goes through --out files rather than captured stdout so the replay
tests can compare bytes directly.
"""

import ast
import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import covercert
import covercert.audits as audits
import covercert.cli as cli
import covercert.isometry_nets as isometry_nets
import covercert.witness as witness
from covercert.bodies import body_from_json_dict
from covercert.cli import main, render_json


def run(args, out=None):
    """Invoke the CLI in-process; returns (exit_code, parsed_out_or_None)."""
    argv = list(args) + (["--out", str(out)] if out is not None else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    if out is None:
        return rc, None
    return rc, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# canonical JSON


def test_render_json_is_canonical():
    blob = render_json({"b": np.float64(1.5), "a": [np.int64(2), True, None]})
    assert blob == '{"a":[2,true,null],"b":1.5}\n'
    assert render_json({}) == "{}\n"


def test_render_json_handles_arrays_and_tuples():
    blob = render_json({"m": np.eye(2), "t": (1, 2)})
    assert blob == '{"m":[[1.0,0.0],[0.0,1.0]],"t":[1,2]}\n'


# ---------------------------------------------------------------------------
# bounds


def test_bounds_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["bounds", "--sweep", "2", "100", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("n,r_n,bound_log,borsuk_log,eps_log,"
                       "diam_bound_log,family_margin_log")
    assert len(lines) == 1 + 99
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[1]) == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-12)


def test_bounds_single_n_json(tmp_path):
    rc, doc = run(["bounds", "--n", "50", "--lam", "3.0"], tmp_path / "b.json")
    assert rc == 0
    assert doc["schema_version"] == 1
    assert doc["config"]["command"] == "bounds"
    assert set(doc) >= {"theorem_lower_bound_log", "borsuk", "pipeline",
                        "thickening", "constant_width", "choose_alpha"}
    assert "main_inequality" not in doc
    assert doc["choose_alpha"]["lambda"] == 3.0


def test_bounds_with_r_uses_chosen_alpha(tmp_path):
    rc, doc = run(["bounds", "--n", "50", "--lam", "3.0", "--r", "0.55"],
                  tmp_path / "b.json")
    assert rc == 0
    assert doc["main_inequality"]["alpha"] == pytest.approx(
        doc["choose_alpha"]["alpha"], rel=1e-15)
    rc, doc = run(["bounds", "--n", "50", "--r", "0.55", "--alpha", "1.0"],
                  tmp_path / "c.json")
    assert rc == 0
    assert doc["main_inequality"]["alpha"] == 1.0
    assert "choose_alpha" not in doc


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--lam", "inf"),
                                         ("--r", "nan")])
def test_bounds_non_finite_parameter_exits_2(capsys, flag, value):
    capsys.readouterr()
    assert main(["bounds", "--n", "3", flag, value]) == 2
    assert f"{flag} must be finite" in _one_line_error(capsys)


def test_render_json_refuses_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            render_json({"x": bad})


def test_bounds_error_paths():
    assert main(["bounds"]) == 2
    assert main(["bounds", "--sweep", "10", "2"]) == 2
    assert main(["bounds", "--sweep", "1", "5"]) == 2
    assert main(["bounds", "--n", "6", "--r", "0.6"]) == 2
    assert main(["bounds", "--n", "2", "--lam", "5.0"]) == 2  # lam ln n >= n


# ---------------------------------------------------------------------------
# jung-check


def test_jung_check_passes_small(tmp_path):
    out = tmp_path / "jung.json"
    rc, doc = run(["jung-check", "--n", "3", "--seed", "9",
                   "--samples", "50", "--cloud-size", "8"], out)
    assert rc == 0
    assert doc["pass"]
    assert doc["simplex"]["ok"]
    assert doc["simplex"]["radius"] == pytest.approx(doc["r_n"], abs=1e-6)
    assert doc["clouds"]["ok"]
    assert doc["clouds"]["max_radius"] <= doc["r_n"] + 1e-6


def test_jung_check_domain():
    assert main(["jung-check", "--n", "11", "--seed", "0"]) == 2
    assert main(["jung-check", "--n", "0", "--seed", "0"]) == 2


def test_jung_check_samples_limit(monkeypatch, capsys):
    # one substream per cloud: past RngStream.CHILD_LIMIT clouds the streams
    # would repeat, so the run is refused before any cloud is drawn
    def no_clouds(*args, **kwargs):
        raise AssertionError("a cloud was drawn")

    monkeypatch.setattr(audits, "sample_uniform_balls", no_clouds)
    assert main(["jung-check", "--n", "3", "--seed", "0", "--samples", "65537"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --samples is at most 65536 ") and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_jung_check_nonpositive_samples_exits_2(monkeypatch, capsys, samples):
    # zero clouds would pass vacuously
    def no_clouds(*args, **kwargs):
        raise AssertionError("a cloud was drawn")

    monkeypatch.setattr(audits, "sample_uniform_balls", no_clouds)
    capsys.readouterr()
    assert main(["jung-check", "--n", "3", "--seed", "1", "--samples", samples]) == 2
    assert "--samples must be positive" in _one_line_error(capsys)


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_jung_check_tol_must_be_finite_and_positive(monkeypatch, capsys, tol):
    def no_clouds(*args, **kwargs):
        raise AssertionError("a cloud was drawn")

    monkeypatch.setattr(audits, "sample_uniform_balls", no_clouds)
    capsys.readouterr()
    assert main(["jung-check", "--n", "3", "--seed", "1", "--tol", tol]) == 2
    assert "--tol must be finite and positive" in _one_line_error(capsys)


@pytest.mark.parametrize("tol", ["9.9e-13", "1e-14", "1e-15", "5e-324"])
def test_jung_check_tol_floor(monkeypatch, capsys, tol):
    # below audits.TOL_FLOOR the solves may stop uncertified (at 1e-15 they
    # did for n = 2, 6 and 10), and jung_check prunes on certified radii
    def no_clouds(*args, **kwargs):
        raise AssertionError("a cloud was drawn")

    monkeypatch.setattr(audits, "sample_uniform_balls", no_clouds)
    capsys.readouterr()
    assert main(["jung-check", "--n", "3", "--seed", "1", "--tol", tol]) == 2
    assert "--tol is at least 1e-12" in _one_line_error(capsys)


def test_jung_check_accepts_the_tol_floor(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # every solve certified
        rc = main(["jung-check", "--n", "6", "--seed", "0", "--samples", "50",
                   "--tol", "1e-12", "--out", str(tmp_path / "jung.json")])
    assert rc == 0


# The bench's jung-check call and one at the CLI defaults (1,000 clouds of 16
# in R^10), pinned: they hold the bytes a solve of every cloud gave before
# jung_check bounded the clouds and skipped most solves.
@pytest.mark.parametrize("flags,digest", [
    (["--n", "6", "--seed", "1001", "--samples", "300", "--cloud-size", "16"],
     "e1d1e434d35dbd4714b7474a4c5eb5de5feefa8d02a61b400af8f071ceb1ffcf"),
    (["--n", "10", "--seed", "3"],
     "c961b11af18aa1a3cdeeb8fe39932beb13ab06aeabd5eece413f68d67cad07db"),
], ids=["bench", "defaults"])
def test_jung_check_is_pinned(tmp_path, flags, digest):
    out = tmp_path / "jung.json"
    rc, _ = run(["jung-check", *flags], out)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The bench's edges, cone and sweep calls at its first seed, pinned: they
# hold the bytes these suites gave while every row norm went through
# np.linalg.norm and every sweep set through IntervalUnion.from_pairs.
@pytest.mark.parametrize("suite,digest", [
    ("edges", "2abaf8e9e32ee75b5bc94534c4a487b99cc50190a16d3d3f394883eb33478117"),
    ("cone", "b7babcb3e4ae325b1d4f35878101884ef289a600e9f44b70ea589e295d10164a"),
    ("sweep", "a556a0540928bc9896f05153d32c4afced169c38eccc968d58109de8f72d0461"),
])
def test_audit_suite_is_pinned(tmp_path, suite, digest):
    out = tmp_path / "audit.json"
    rc, _ = run(["audit", "--suite", suite, "--seed", "1001"], out)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# witness pipeline


@pytest.fixture(scope="module")
def witness_cert(tmp_path_factory):
    """One full witness run at the pinned seed, with recorded warnings."""
    out = tmp_path_factory.mktemp("wit") / "cert.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["witness", "--seed", "2", "--out", str(out)])
    return rc, out, caught


def test_witness_requires_seed(capsys):
    assert main(["witness"]) == 2
    assert "seed" in capsys.readouterr().err


# the fields a witness search draws from its seed, as bench/checks.py hashes them
SEEDED_FIELDS = ("X", "per_member_counts", "verdict", "diam_X", "non_coverage_method")


def _seeded_digest(cert: dict) -> str:
    text = json.dumps({k: cert[k] for k in SEEDED_FIELDS}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_witness_succeeds_and_replays(witness_cert, tmp_path):
    rc, out, _ = witness_cert
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["schema_version"] == 2
    assert cert["kind"] == "witness-certificate"
    # the family is named by its rule, not listed member by member
    assert "elements" not in cert["family_manifest"]["net"]
    assert out.stat().st_size < 150_000
    assert cert["verdict"] is True
    assert cert["diam_X"] <= cert["threshold"] + 1e-12
    # verdict rule for k = 1: no single member holds every witness point
    assert cert["non_coverage_method"] == "per-member-counts"
    assert max(cert["per_member_counts"]) < len(cert["X"]["points"])
    # The replay contract, pinned: a change meant to alter certificate bytes
    # updates this hash and says why. Last change: the estimates block took
    # the exact member and edge measures (estimates and hypotheses only).
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "e62202e5eff8d5489f2ff4d6701f6b0d36622fcc305c97f9e8e462e6f45e43bf"
    # the seeded result fields alone, pinned apart from the bytes around them
    assert _seeded_digest(cert) == \
        "0ea96679ab97ee527a9850ea5f07a1813cdfa15d8ed7d78d8e0965132d1f0425"
    replay = tmp_path / "replay.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["witness", "--seed", "2", "--out", str(replay)]) == 0
    assert replay.read_bytes() == out.read_bytes()


def test_witness_flags_hypothesis_estimates(witness_cert):
    _, out, caught = witness_cert
    assert any("hypotheses fail on measured estimates" in str(w.message)
               for w in caught)
    cert = json.loads(out.read_text())
    # the largest member measure is diagnostic, not the design p
    assert cert["estimates"]["member_measure_max"]["value"] > cert["config"]["params"]["p"]
    assert not cert["hypotheses"]["pass"]


@pytest.fixture(scope="module")
def witness_cert_v1(witness_cert):
    """The seed-2 certificate in schema 1, which also lists the net element
    by element."""
    _, out, _ = witness_cert
    cert = json.loads(out.read_text())
    manifest = cert["family_manifest"]
    family = witness.witness_family(body_from_json_dict(manifest["base_body"]),
                                    cert["r"], manifest["eps"])
    manifest["net"]["elements"] = family.net.to_json_dict()["elements"]
    manifest["member_rule"] = "member = g(thicken(base_body, eps)) for g in net.elements"
    cert["schema_version"] = 1
    return cert


def _verify(cert: dict, tmp_path, name: str):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cert))
    return run(["witness", "--verify-cert", str(path)], tmp_path / f"{name}-report.json")


def test_witness_verify_cert_accepts(witness_cert, witness_cert_v1, tmp_path):
    _, out, _ = witness_cert
    for name, cert in (("v2", json.loads(out.read_text())), ("v1", witness_cert_v1)):
        rc, doc = _verify(cert, tmp_path, name)
        assert rc == 0, name
        assert doc["kind"] == "witness-verification"
        assert doc["pass"]
        assert all(c["ok"] for c in doc["checks"])
        # both measures of a ball family have closed forms, rechecked bit for bit
        assert doc["checks"][-1] == {"name": "estimates-recomputed", "ok": True,
                                     "recomputed": ["edge_measure", "member_measure_max"],
                                     "not_rechecked": []}


def test_witness_verify_cert_accepts_n3(tmp_path):
    out = tmp_path / "cert.json"
    rc, cert = run(["witness", "--n", "3", "--seed", "2", "--eps", "0.1",
                    "--ball-radius", "0.4", "--samples", "500"], out)
    assert rc == 0 and cert["verdict"] is True
    rc, doc = run(["witness", "--verify-cert", str(out)], tmp_path / "report.json")
    assert rc == 0 and doc["pass"]
    assert doc["checks"][-1]["recomputed"] == ["edge_measure", "member_measure_max"]


# each tampering and the checks it must fail
_TAMPERED = {
    "diam": {"diameter-recomputed"},
    "counts": {"membership-counts"},
    "counts-thinned": {"membership-counts"},
    "verdict": {"verdict-matches"},
    "net-certificate": {"family-regenerated"},
    # on a schema-1 certificate, 40 of the 39,193 listed members and their
    # counts removed, or all reversed: the listed family is no longer the
    # one the covering guarantee describes, and the counts no longer match
    # the regenerated family (thinner certificates exit 2, see below)
    "thinned": {"family-regenerated", "membership-counts"},
    "reordered": {"family-regenerated", "membership-counts"},
    "threshold": {"threshold-recomputed"},
    "r": {"threshold-recomputed", "family-regenerated"},
    # the stated rule, method and verdict must be the schema's and the
    # recomputed ones; a verdict of 1 equals True but is not a boolean
    "member-rule": {"family-regenerated"},
    "method": {"verdict-matches"},
    "verdict-one": {"verdict-matches"},
    # an exact estimate is recomputed: a forged value, or a ball member's
    # exact measure relabelled as a probe that is not rechecked, fails
    "member-measure": {"estimates-recomputed"},
    "edge-measure": {"estimates-recomputed"},
    "member-measure-relabelled": {"estimates-recomputed"},
}
# tamperings that edit the element list of a schema-1 certificate
_LISTED = {"thinned", "reordered"}


@pytest.mark.parametrize("corrupt", sorted(_TAMPERED))
def test_witness_verify_cert_rejects_tampering(witness_cert, witness_cert_v1, tmp_path,
                                               corrupt):
    _, out, _ = witness_cert
    cert = json.loads(json.dumps(witness_cert_v1) if corrupt in _LISTED else out.read_text())
    net = cert["family_manifest"]["net"]
    if corrupt == "diam":
        cert["diam_X"] = 0.5 * cert["diam_X"]
    elif corrupt == "counts":
        cert["per_member_counts"][0] += 1
    elif corrupt == "counts-thinned":
        del cert["per_member_counts"][::1000]
    elif corrupt == "verdict":
        cert["X"]["points"] = cert["X"]["points"][:2]  # shrink the witness set
    elif corrupt == "net-certificate":
        net["certificate"]["translation_count"] -= 1
    elif corrupt == "thinned":
        del net["elements"][::1000]
        del cert["per_member_counts"][::1000]
    elif corrupt == "reordered":
        net["elements"] = net["elements"][::-1]
        cert["per_member_counts"] = cert["per_member_counts"][::-1]
    elif corrupt == "threshold":
        cert["threshold"] = 5.0
    elif corrupt == "member-rule":
        cert["family_manifest"]["member_rule"] = witness_cert_v1["family_manifest"]["member_rule"]
    elif corrupt == "method":
        cert["non_coverage_method"] = "count-sum"
    elif corrupt == "verdict-one":
        cert["verdict"] = 1
    elif corrupt == "member-measure":
        cert["estimates"]["member_measure_max"]["value"] = 0.01
    elif corrupt == "edge-measure":
        cert["estimates"]["edge_measure"]["value"] = math.nextafter(
            cert["estimates"]["edge_measure"]["value"], 0.0)
    elif corrupt == "member-measure-relabelled":
        cert["estimates"]["member_measure_max"] = {"value": 0.01, "method": "monte-carlo",
                                                   "samples": 20000}
    else:
        cert["r"] = 0.3
    rc, doc = _verify(cert, tmp_path, f"bad_{corrupt}")
    assert rc == 1
    assert not doc["pass"]
    failed = {c["name"] for c in doc["checks"] if not c["ok"]}
    assert _TAMPERED[corrupt] <= failed
    if corrupt not in ("diam", "verdict", "r"):
        assert failed == _TAMPERED[corrupt] and doc["verdict"] is True


def test_witness_verify_cert_bounds_family_before_building(witness_cert, witness_cert_v1,
                                                           tmp_path, monkeypatch, capsys):
    # a family that must hold more members than the certificate counts is
    # refused before any net or grid is built: eps = 2e-4 implies about 4e8
    # members, and a schema-1 family thinned to every 7th member (and count)
    # counts 5,599 where the grid alone has at least 38,718. So is a base
    # ball of radius 1e-320, whose net radius eps / (2 D) overflows
    def never(*args, **kwargs):
        raise AssertionError("a net was built")

    monkeypatch.setattr(isometry_nets, "build_translation_cover", never)
    monkeypatch.setattr(isometry_nets, "build_orthogonal_net", never)
    _, out, _ = witness_cert
    fine_eps = json.loads(out.read_text())
    fine_eps["family_manifest"]["eps"] = 2e-4
    thinned = json.loads(json.dumps(witness_cert_v1))
    net = thinned["family_manifest"]["net"]
    net["elements"] = net["elements"][::7]
    thinned["per_member_counts"] = thinned["per_member_counts"][::7]
    tiny = json.loads(out.read_text())
    tiny["family_manifest"]["base_body"]["ball"]["radius"] = 1e-320
    for name, cert, message in (
            ("fine-eps", fine_eps, "members, more than the 39193 allowed"),
            ("thinned", thinned, "members, more than the 5599 allowed"),
            ("tiny-base", tiny, "the orthogonal net radius eps / (2 D) = inf is not finite")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["witness", "--verify-cert", str(path)]) == 2, name
        assert message in _one_line_error(capsys)


def test_witness_k2_verify_reproduces_verdict(tmp_path):
    # no family pair is enumerable at this size: the k = 2 verdict is the
    # count-sum bound, and the verifier re-derives it with the same method
    rc, cert = run(["witness", "--seed", "2", "--k", "2", "--samples", "500"],
                   tmp_path / "k2.json")
    assert rc == 1
    assert cert["verdict"] is False and cert["non_coverage_method"] == "count-sum"
    rc, doc = run(["witness", "--verify-cert", str(tmp_path / "k2.json")], tmp_path / "v.json")
    by_name = {c["name"]: c for c in doc["checks"]}
    assert rc == 1 and doc["verdict"] is False
    assert by_name["non-coverage"]["method"] == "count-sum"
    assert [name for name, c in by_name.items() if not c["ok"]] == ["non-coverage"]


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _bad_cert(cert: dict, tmp_path, corrupt: str) -> Path:
    cert = json.loads(json.dumps(cert))
    elements = cert["family_manifest"]["net"].get("elements")
    if corrupt == "missing-key":
        del cert["diam_X"]
    elif corrupt == "non-orthogonal":
        elements[len(elements) // 2]["matrix"][0][0] = 1.01
    elif corrupt == "translation-length":
        elements[-1]["translation"] = elements[-1]["translation"] + [0.0]
    elif corrupt == "n-outside-domain":
        cert["n"] = 4
    elif corrupt == "schema-version":
        cert["schema_version"] = 3
    elif corrupt == "kind":
        cert["kind"] = "witness-verification"
    elif corrupt == "count-fraction":
        cert["per_member_counts"][0] += 0.9
    elif corrupt == "count-string":
        cert["per_member_counts"][0] = str(cert["per_member_counts"][0])
    elif corrupt == "k-fraction":
        cert["k"] = 1.7
    elif corrupt == "k-bool":
        cert["k"] = True
    elif corrupt == "n-string":
        cert["n"] = "2"
    elif corrupt == "r-string":
        cert["r"] = str(cert["r"])
    elif corrupt == "eps-string":
        cert["family_manifest"]["eps"] = str(cert["family_manifest"]["eps"])
    elif corrupt == "delta-string":
        net = cert["family_manifest"]["net"]
        net["delta"] = str(net["delta"])
    elif corrupt == "point-bool":
        cert["X"]["points"][0][0] = True
    elif corrupt == "point-length":
        # the same coordinates, two points to a row: not points of R^n
        points = cert["X"]["points"][:len(cert["X"]["points"]) // 2 * 2]
        cert["X"]["points"] = [p + q for p, q in zip(points[::2], points[1::2])]
    else:
        raise ValueError(corrupt)
    path = tmp_path / f"{corrupt}.json"
    path.write_text(json.dumps(cert))
    return path


_MALFORMED = {"missing-key": "missing key 'diam_X'",
              "non-orthogonal": "is not orthogonal",
              "translation-length": "must share one shape",
              "n-outside-domain": "outside the witness domain",
              "schema-version": "schema_version 3 is not one of 1, 2",
              "kind": "'witness-verification' is not a witness certificate",
              "count-fraction": "per_member_counts holds a value that is not a JSON integer",
              "count-string": "per_member_counts holds a value that is not a JSON integer",
              "k-fraction": "malformed certificate: k holds a value that is not a JSON integer",
              "k-bool": "malformed certificate: k holds a value that is not a JSON integer",
              "n-string": "malformed certificate: n holds a value that is not a JSON integer",
              "r-string": "malformed certificate: r holds a value that is not a JSON number",
              "eps-string": "malformed certificate: eps holds a value that is not a JSON number",
              "delta-string": "net.delta holds a value that is not a JSON number",
              "point-bool": "X.points holds a value that is not a JSON number",
              "point-length": "cannot reshape array"}


@pytest.mark.parametrize("corrupt", sorted(_MALFORMED))
def test_witness_verify_cert_malformed_exits_2(witness_cert, witness_cert_v1, tmp_path,
                                               capsys, corrupt):
    # exit 1 means "verification failed"; input that cannot be checked is a
    # usage error with one line on stderr, never a traceback. Listed net
    # elements exist only in schema-1 certificates.
    _, out, _ = witness_cert
    listed = corrupt in ("non-orthogonal", "translation-length")
    bad = _bad_cert(witness_cert_v1 if listed else json.loads(out.read_text()), tmp_path,
                    corrupt)
    capsys.readouterr()
    assert main(["witness", "--verify-cert", str(bad)]) == 2
    assert _MALFORMED[corrupt] in _one_line_error(capsys)


def test_witness_verify_cert_unreadable_exits_2(witness_cert, tmp_path, capsys):
    capsys.readouterr()
    assert main(["witness", "--verify-cert", str(tmp_path / "missing.json")]) == 2
    assert "No such file" in _one_line_error(capsys)
    _, out, _ = witness_cert
    truncated = tmp_path / "truncated.json"
    truncated.write_text(out.read_text()[:1000])
    assert main(["witness", "--verify-cert", str(truncated)]) == 2
    _one_line_error(capsys)


def _field_paths(doc, path=()):
    """Every key path of a JSON document; a list contributes its first item."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:1])
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


_DELETE = object()
# stated fields the verifier checks beyond the family, counts and diameter
_CHECKED_FIELDS = {("schema_version",), ("kind",), ("family_manifest", "member_rule"),
                   ("non_coverage_method",), ("verdict",), ("estimates",)} | {
    ("estimates", name, *key) for name in ("member_measure_max", "edge_measure")
    for key in ((), ("value",), ("method",), ("formula",))}


def test_witness_verify_cert_fuzz(tmp_path, capsys):
    # every field of a valid certificate deleted or replaced by a value of the
    # wrong type or size, the file cut short, or a top-level list: the
    # verifier answers 0, 1 or 2 (one error line), never with a traceback,
    # and never 0 once a field it states it checks is changed. A small family
    # (1,425 members) keeps the 700-odd runs quick.
    src = tmp_path / "cert.json"
    rc, cert = run(["witness", "--seed", "1", "--samples", "500", "--ball-radius", "0.4",
                    "--eps", "0.1"], src)
    assert rc == 0 and cert["verdict"]
    paths = list(_field_paths(cert))
    assert len(paths) > 80
    docs = []
    for path in paths:
        for value in (_DELETE, None, "x", -1, 0, 1e9, [], math.nan):
            doc = copy.deepcopy(cert)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            docs.append((path, f"{path} -> {value!r}", json.dumps(doc)))
    text = src.read_text()
    docs += [((), f"cut at {cut}", text[:cut])
             for cut in (0, 1, 100, len(text) // 2, len(text) - 2)]
    docs.append(((), "top-level list", json.dumps([cert])))

    mutated = tmp_path / "mutated.json"
    capsys.readouterr()
    codes = {}
    for path, name, body in docs:
        mutated.write_text(body)
        rc = main(["witness", "--verify-cert", str(mutated), "--out", str(tmp_path / "r.json")])
        assert rc in (0, 1, 2), name
        assert rc != 0 or path not in _CHECKED_FIELDS, name
        if rc == 2:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        codes[rc] = codes.get(rc, 0) + 1
    assert codes.get(0, 0) and codes.get(1, 0) and codes.get(2, 0), codes


def test_witness_negative_control_fails(tmp_path):
    # a radius-0.7 window: every diameter-1 set fits in some radius r_2 < 0.7
    # ball, so one family member always covers the survivors
    out = tmp_path / "neg.json"
    rc, cert = run(["witness", "--seed", "2", "--ball-radius", "0.7",
                    "--max-retries", "2", "--samples", "1000"], out)
    assert rc == 1
    assert cert["verdict"] is False


def test_witness_body_file(tmp_path):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(
        {"kind": "ball", "dim": 2, "ball": {"center": [0.0, 0.0], "radius": 0.5}}))
    out = tmp_path / "cert.json"
    rc, cert = run(["witness", "--seed", "2", "--body", str(body),
                    "--samples", "2000"], out)
    assert rc == 0
    assert cert["verdict"] is True
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(
        {"kind": "ball", "dim": 3,
         "ball": {"center": [0.0, 0.0, 0.0], "radius": 0.5}}))
    assert main(["witness", "--seed", "2", "--body", str(wrong)]) == 2


# The segment body of the benchmark: half-length 0.3 on the x-axis, a
# Dykstra base whose family needs the rotation net.
SEGMENT_BODY = {
    "dim": 2, "kind": "halfspaces", "exact_volume": None,
    "halfspaces": [{"normal": [1.0, 0.0], "offset": 0.3},
                   {"normal": [-1.0, 0.0], "offset": 0.3},
                   {"normal": [0.0, 1.0], "offset": 0.0},
                   {"normal": [0.0, -1.0], "offset": 0.0}],
    "bound": {"center": [0.0, 0.0], "radius": 0.3},
}


@pytest.fixture(scope="module")
def segment_cert(tmp_path_factory):
    """The SEGMENT_BODY witness at seed 1, eps 0.4 and 500 samples, run from
    the body's directory so that the echoed --body path is its bare name."""
    home = tmp_path_factory.mktemp("segment")
    (home / "segment.json").write_text(json.dumps(SEGMENT_BODY))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(home)
        rc, _ = run(["witness", "--seed", "1", "--body", "segment.json", "--eps", "0.4",
                     "--samples", "500"], home / "cert.json")
    return rc, home / "cert.json"


# Non-ball outputs, pinned as test_witness_succeeds_and_replays pins the ball
# certificate: a change meant to alter their bytes updates the hash and says why.
def test_segment_witness_is_pinned(segment_cert):
    rc, out = segment_cert
    assert rc == 0
    # Last change: the member measure became the closed-form bound of the
    # capsule's area, and the base body's echo lost its exact_volume
    # (estimates, hypotheses and base_body only).
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "6693744fff17b2ee618601f42f470e4eebd51aa918b4546c3430ca1bf6df7a65"
    cert = json.loads(out.read_text())
    assert _seeded_digest(cert) == \
        "545ad59499368f4957e817f13afe02b3b88f95d6ba8c846d38853650c84db606"
    # the capsule's area 2 (0.6) (0.4) + pi 0.4^2 = 0.983 exceeds pi 0.55^2
    assert cert["estimates"]["member_measure_max"] == {
        "value": 1.0, "method": "bound", "formula": witness.MEMBER_BOUND_FORMULA}
    assert cert["estimates"]["edge_measure"]["method"] == "exact"
    # the verifier rechecks both measures
    rc, doc = run(["witness", "--verify-cert", str(out)], out.parent / "report.json")
    assert rc == 0 and doc["pass"]
    assert doc["checks"][-1] == {"name": "estimates-recomputed", "ok": True,
                                 "recomputed": ["edge_measure", "member_measure_max"],
                                 "not_rechecked": []}


def test_segment_member_bound_is_rechecked(segment_cert, tmp_path):
    # an altered bound fails estimates-recomputed alone; a Monte Carlo
    # member entry, as schema-2 certificates stated it before the bound,
    # still verifies and is listed as not rechecked
    cert = json.loads(segment_cert[1].read_text())
    bound = cert["estimates"]["member_measure_max"]
    for name, entry in (("lower", {**bound, "value": 0.9}),
                        ("probe", {"value": 0.864, "method": "monte-carlo", "samples": 500})):
        cert["estimates"]["member_measure_max"] = entry
        rc, doc = _verify(cert, tmp_path, name)
        failed = {c["name"] for c in doc["checks"] if not c["ok"]}
        if name == "lower":
            assert rc == 1 and failed == {"estimates-recomputed"}
        else:
            assert rc == 0 and doc["checks"][-1] == {
                "name": "estimates-recomputed", "ok": True, "recomputed": ["edge_measure"],
                "not_rechecked": ["member_measure_max"]}


def test_witness_samples_flag_changes_only_the_echo(tmp_path):
    # nothing reads --samples: a ball and a segment certificate written
    # with 1 and with 20,000 differ in config alone
    (tmp_path / "segment.json").write_text(json.dumps(SEGMENT_BODY))
    for name, flags in (("ball", ["--ball-radius", "0.4", "--eps", "0.1"]),
                        ("segment", ["--body", str(tmp_path / "segment.json"), "--eps", "0.4"])):
        certs = [run(["witness", "--seed", "1", *flags, "--samples", samples],
                     tmp_path / f"{name}-{samples}.json")[1] for samples in ("1", "20000")]
        assert [c["config"]["params"]["samples"] for c in certs] == [1, 20000]
        for cert in certs:
            del cert["config"]
        assert certs[0] == certs[1]


@pytest.mark.parametrize("flags,digest", [
    (["--samples", "200"], "e2c07c83ab65ce31aee140f26f221bd01e51c7f650ccf8b600198fb3dc0040bb"),
    (["--samples", "20", "--expect-fail"],
     "80ce9d5ff024b06736198e201745db349eb617f2bf870da171ff17968a65eb5c"),
], ids=["cover", "cover-expect-fail"])
def test_cover_audit_is_pinned(tmp_path, flags, digest):
    out = tmp_path / "audit.json"
    rc, _ = run(["audit", "--suite", "cover", "--seed", "1", *flags], out)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The benchmark's segment-body calls at CLI seeds 1002-1005, pinned with the
# bytes they gave before ThickenedBody culled points by the base's slabs. The
# cull changes which points share a Dykstra batch, and a Dykstra result can
# depend on its batch, so these guard the decisions near member boundaries.
# The witness and verify pins were re-pinned when the member measure became
# the closed-form bound (estimates, hypotheses, base_body and the
# estimates-recomputed check only).
SEGMENT_BODY_PINS = {
    1002: {"witness": "9ad187a44a7f0543c5b815cce4b3fc442aa450ed4213ddd1cb85f72844d2fe4c",
           "verify": "02c4ed59a7d17dd6b65c85ed89a7bf61c59f520060e23802172deb8ef6972583",
           "cover": "f027a3e9ecc5f9fc07a0f44b0bc56a56d8015d0201602032fe3234d98aeb06f2",
           "fault": "e8fbd3b856af78a74771d3b138e5aad69d480d2266d0d226ddcf6432636aaa25"},
    1003: {"witness": "da5da2bc1da919c93019733c48a7d8a53c86f6461b8d925cc965edb769fc053a",
           "verify": "2c5a90103c436346f8b521aa29f109e072e7875854b2a76d8e615835857371a9",
           "cover": "dae685ae39cc65e653b304566cc3b4fecac5e8bc90bad07262e00e278f16a634",
           "fault": "76636b4ad4500b5c0a79ef2e08600802d0ba09a0304537611e28840eb4ff72e3"},
    1004: {"witness": "4d4f621f5cf779c6c148f1dce3a5307850d1e5d6c9173d75de752254122d19d0",
           "verify": "8bcdae073cd1fa9bbecd353f41a6ec40fd56afe2762a439a2a4c571744ba9083",
           "cover": "495ab1316248d901b6edd6b23adfc4dd9a0585f763b1f28dca1d7b2bb1c2d438",
           "fault": "9235eaf9ab6982f8f219d55a5ab3ec997d1e7d91de8bd676f458cd458a6a8994"},
    1005: {"witness": "4b870a9d3d1eb908720e8070e8ba4c70a8000a63cac48e7b03fce7f1ef2bd9c8",
           "verify": "5713e1ad5049be6d4c9710e617fdc737f68cb117957dc2dbfd0104028e088969",
           "cover": "d48a5d48066c8e99c7197d2b185759bc275685b432234b65e7d6664e41b8c393",
           "fault": "93d18f4509c1d299f847e8399e106d1b32cc71bc058303011a968b90ae8030bc"},
}


@pytest.mark.parametrize("seed", sorted(SEGMENT_BODY_PINS))
def test_segment_body_outputs_are_pinned(tmp_path, seed):
    (tmp_path / "segment.json").write_text(json.dumps(SEGMENT_BODY))
    calls = {
        "witness": ["witness", "--seed", str(seed), "--body", "segment.json", "--eps", "0.4",
                    "--samples", "500"],
        "verify": ["witness", "--verify-cert", f"witness-{seed}.json"],
        "cover": ["audit", "--suite", "cover", "--seed", str(seed), "--samples", "200"],
        "fault": ["audit", "--suite", "cover", "--seed", str(seed), "--samples", "20",
                  "--expect-fail"],
    }
    digests = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        for name, argv in calls.items():
            out = tmp_path / f"{name}-{seed}.json"
            rc, _ = run(argv, out)
            assert rc == 0, name
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == SEGMENT_BODY_PINS[seed]


@pytest.mark.parametrize("fault", ["bound-too-small", "unbounded"])
def test_halfspace_body_beyond_its_bound_exits_2(segment_cert, tmp_path, capsys, fault):
    # a bound of radius 0.1 used to give a family built from the false
    # diameter bound 0.2, and a certificate that verified
    body = copy.deepcopy(SEGMENT_BODY)
    if fault == "bound-too-small":
        body["bound"]["radius"] = 0.1
    else:
        del body["halfspaces"][3]  # y >= 0 dropped: a half-strip
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body))
    capsys.readouterr()
    assert main(["witness", "--seed", "1", "--body", str(path), "--eps", "0.4",
                 "--samples", "500"]) == 2
    assert "the bound must hold the body" in _one_line_error(capsys)
    cert = json.loads(segment_cert[1].read_text())
    cert["family_manifest"]["base_body"] = body
    forged = tmp_path / "cert.json"
    forged.write_text(json.dumps(cert))
    assert main(["witness", "--verify-cert", str(forged)]) == 2
    assert "the bound must hold the body" in _one_line_error(capsys)


@pytest.mark.parametrize("doc,message", [
    ({"kind": "ball", "dim": 2}, "malformed body: missing key 'ball'"),
    ({"kind": "cube", "dim": 2}, "unknown body kind: cube"),
    ([1, 2], "malformed body: "),
    ({"kind": "ball_intersection", "dim": 2,
      "balls": [{"center": [0.0, 0.0], "radius": 0.3}, {"center": [1.0, 0.0], "radius": 0.3}]},
     "do not meet: the intersection is empty"),
], ids=["missing-key", "unknown-kind", "not-an-object", "disjoint-lens"])
def test_witness_bad_body_file_exits_2(tmp_path, capsys, doc, message):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["witness", "--seed", "1", "--body", str(body)]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("n", ["4", "0"])
def test_witness_outside_domain_exits_2(monkeypatch, capsys, n):
    def never(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(witness, "build_cover_family", never)
    capsys.readouterr()
    assert main(["witness", "--seed", "1", "--n", n]) == 2
    assert f"n = {n} is outside the witness domain n in {{2, 3}}" in _one_line_error(capsys)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_witness_nonpositive_samples_exits_2(monkeypatch, capsys, samples):
    def never(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(witness, "build_cover_family", never)
    capsys.readouterr()
    assert main(["witness", "--seed", "1", "--samples", samples]) == 2
    assert "samples must be positive" in _one_line_error(capsys)


@pytest.mark.parametrize("flags, message", [
    (["--p", "0.7"], "p must lie in (0, 1/2)"),
    (["--k", "0"], "k must be a positive integer"),
    (["--M", "0"], "M must be a positive integer"),
    (["--max-retries", "0"], "max_retries must be positive"),
    (["--alpha", "2.0"], "alpha must lie in (0, pi/2)"),
    (["--r", "0.6", "--alpha", "0.1"], "a diameter-1 witness needs the edge threshold at or below 1"),
    (["--r", "nan", "--alpha", "1.0"], "--r must be finite and positive"),
    (["--eps", "nan"], "--eps must be finite and positive"),
    (["--ball-radius", "nan"], "--ball-radius must be finite and positive"),
    (["--ball-radius", "inf"], "--ball-radius must be finite and positive"),
    # floors of 10^601.2 and 10^9.2 members, above the search's FAMILY_CAP
    (["--eps", "1e-300"], "the family needs at least 10^"),
    (["--eps", "1e-4"], "the family needs at least 10^"),
    # eps / (2 D) overflows for a subnormal base and underflows for eps = 5e-324
    (["--ball-radius", "1e-320"], "the orthogonal net radius eps / (2 D) = inf is not finite"),
    (["--eps", "5e-324"], "the orthogonal net radius eps / (2 D) = 0.0 is not finite"),
    # the default angle 2 acos(1/2r) reaches pi/2 at r = 1/sqrt(2)
    (["--r", "0.8"], "r = 0.8 is at least 1/sqrt(2), where no default cap angle in (0, pi/2) "
                     "keeps the edge threshold at 1: --alpha must be given"),
    (["--r", "1e300"], "--alpha must be given"),
])
def test_witness_bad_parameters_exit_2_before_the_family(monkeypatch, capsys, flags, message):
    def never(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(isometry_nets, "build_translation_cover", never)
    capsys.readouterr()
    assert main(["witness", "--seed", "1", *flags]) == 2
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["audit", "--suite", "edges", "--seed", "1", "--samples", "100000000000000000"],
    ["jung-check", "--n", "2", "--seed", "1", "--samples", "1",
     "--cloud-size", "100000000000000000"],
    # the coclique's M points: --samples no longer draws anything
    ["witness", "--seed", "1", "--n", "2", "--body", "segment.json", "--eps", "0.4",
     "--M", "100000000000000000"],
], ids=["audit-edges", "jung-check", "witness"])
@pytest.mark.filterwarnings("ignore:lemma hypotheses fail")
def test_refused_allocation_exits_2(tmp_path, monkeypatch, capsys, argv):
    # 10^17 rows of float64 ask for 1.4 EiB, more than any address space,
    # so numpy refuses them before it touches memory
    (tmp_path / "segment.json").write_text(json.dumps(SEGMENT_BODY))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert "Unable to allocate" in _one_line_error(capsys)


# ---------------------------------------------------------------------------
# audit suites


@pytest.mark.parametrize("suite,samples", [
    ("caps", None), ("sweep", 200), ("edges", 2000),
    ("cone", 600), ("cover", 40),
])
def test_audit_suites_pass(tmp_path, suite, samples):
    args = ["audit", "--suite", suite, "--seed", "1"]
    if samples is not None:
        args += ["--samples", str(samples)]
    rc, doc = run(args, tmp_path / f"{suite}.json")
    assert rc == 0
    assert doc["pass"]
    assert doc["suite"] == suite
    assert doc["failures"] == []


@pytest.mark.parametrize("suite,samples", [("cone", 600), ("cover", 40)])
def test_audit_expect_fail_controls(tmp_path, suite, samples):
    rc, doc = run(["audit", "--suite", suite, "--seed", "1",
                   "--samples", str(samples), "--expect-fail"],
                  tmp_path / "neg.json")
    assert rc == 0
    assert doc["fault_injection"]
    assert doc["pass"]  # pass means the injected fault was detected


@pytest.mark.parametrize("suite", ["caps", "cone", "sweep", "edges", "cover"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_audit_nonpositive_samples_exits_2(monkeypatch, capsys, suite, samples):
    # --samples 0 used to fall back to the suite's default count while the
    # report echoed 0
    for name, entry in audits.SUITES.items():
        monkeypatch.setitem(audits.SUITES, name,
                            entry._replace(run=lambda *args: pytest.fail("a suite ran")))
    capsys.readouterr()
    assert main(["audit", "--suite", suite, "--seed", "1", "--samples", samples]) == 2
    assert "--samples must be positive" in _one_line_error(capsys)


def test_cover_audit_trial_limit(monkeypatch, capsys, tmp_path):
    # trial t draws its translation from rng.child(t + 1), so past
    # CHILD_LIMIT - 1 trials the audit is refused before any placement is drawn
    from covercert.geom_core import RngStream

    monkeypatch.setattr(RngStream, "CHILD_LIMIT", 8)
    rc, doc = run(["audit", "--suite", "cover", "--seed", "1", "--samples", "7"],
                  tmp_path / "cover.json")
    assert rc == 0 and doc["report"]["trials"] == 7

    def no_draws(*args, **kwargs):
        raise AssertionError("a placement was drawn")

    monkeypatch.setattr(isometry_nets, "haar_orthogonal", no_draws)
    capsys.readouterr()
    assert main(["audit", "--suite", "cover", "--seed", "1", "--samples", "8"]) == 2
    assert "runs 1 to 7 trials" in _one_line_error(capsys)


def test_audit_default_samples_echo(monkeypatch, tmp_path):
    # without --samples each suite runs its default count; the echo says None
    seen = {}
    for suite, entry in audits.SUITES.items():
        def record(rng, samples, expect_fail, suite=suite):
            seen[suite] = samples
            return {"failures": []}

        monkeypatch.setitem(audits.SUITES, suite, entry._replace(run=record))
        rc, doc = run(["audit", "--suite", suite, "--seed", "1"], tmp_path / f"{suite}.json")
        assert rc == 0 and doc["config"]["params"]["samples"] is None
    assert seen == {name: entry.samples for name, entry in audits.SUITES.items()}


def test_audit_cli_follows_suite_table(monkeypatch, tmp_path):
    # the parser's choices, the fault-injection check and the echoed
    # default count all come from audits.SUITES
    audit_parser = cli._build_parser()._subparsers._group_actions[0].choices["audit"]
    suite_action = next(a for a in audit_parser._actions if a.dest == "suite")
    assert suite_action.choices == list(audits.SUITES)
    for suite, entry in audits.SUITES.items():
        seen = []

        def record(rng, samples, expect_fail):
            seen.append((samples, expect_fail))
            return {"failures": []}

        monkeypatch.setitem(audits.SUITES, suite, entry._replace(run=record))
        argv = ["audit", "--suite", suite, "--seed", "1", "--expect-fail"]
        if entry.fault:
            rc, doc = run(argv, tmp_path / f"{suite}-fault.json")
            assert rc == 0 and doc["fault_injection"] and doc["pass"]
            assert seen[-1] == (entry.samples, True)
        else:
            assert main(argv) == 2
        rc, doc = run(["audit", "--suite", suite, "--seed", "1"], tmp_path / f"{suite}.json")
        assert rc == 0 and doc["suite"] == suite
        assert seen[-1] == (entry.samples, False)


def test_audit_caps_rejects_samples(monkeypatch, capsys):
    # caps has no sample count: --samples used to be ignored but echoed
    entry = audits.SUITES["caps"]
    assert entry.samples is None
    monkeypatch.setitem(audits.SUITES, "caps",
                        entry._replace(run=lambda *args: pytest.fail("a suite ran")))
    capsys.readouterr()
    assert main(["audit", "--suite", "caps", "--seed", "1", "--samples", "5"]) == 2
    assert _one_line_error(capsys) == "error: suite 'caps' takes no --samples\n"


def test_audit_expect_fail_rejected_elsewhere():
    assert main(["audit", "--suite", "caps", "--seed", "1",
                 "--expect-fail"]) == 2


def test_audit_argparse_errors():
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--suite", "nonsense", "--seed", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--suite", "caps"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# console script


def _declared_entry_point():
    """The ``covercert`` entry of ``[project.scripts]`` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["covercert"]


def _check_bounds_run(cmd, what, env=None):
    proc = subprocess.run(cmd + ["bounds", "--n", "4"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (
        f"{what} exited {proc.returncode}, expected 0; stderr:\n{proc.stderr}")
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        pytest.fail(f"{what} printed no JSON ({exc}); stderr:\n{proc.stderr}")
    assert doc["schema_version"] == 1
    assert doc["config"]["params"]["n"] == 4
    return proc.stdout


def test_console_script_runs():
    """The declared entry point runs as pip's console-script wrapper would.

    The wrapper is rebuilt from the ``module:attr`` string in pyproject.toml
    and run in a fresh interpreter, so the check needs no install; an entry
    that does not resolve fails the child with an ImportError in its stderr.
    ``python -m covercert`` and an installed ``covercert`` script on PATH go
    through the same checks.
    """
    entry = _declared_entry_point()
    module, _, attr = entry.partition(":")
    # the wrapper pip's console-script template writes for `module:attr`
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'covercert'; sys.exit({attr}())")
    src = str(Path(covercert.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = _check_bounds_run([sys.executable, "-c", wrapper],
                            f"entry point {entry!r}", env=env)

    assert _check_bounds_run([sys.executable, "-m", "covercert"],
                             "python -m covercert", env=env) == out

    exe = shutil.which("covercert")
    if exe:
        _check_bounds_run([exe], f"installed script {exe}")


def test_cli_import_loads_no_scipy():
    """covercert's special functions are its own: importing the CLI in a
    fresh interpreter loads no scipy module."""
    src = str(Path(covercert.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import covercert.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_witness_searches_load_no_scipy_or_numpy_polynomial(tmp_path):
    """A ball witness and a segment witness, run in one fresh interpreter,
    load no scipy module and no numpy.polynomial (the quadrature rule of
    the exact edge measure is geom_core.gauss_legendre)."""
    src = str(Path(covercert.__file__).resolve().parents[1])
    (tmp_path / "segment.json").write_text(json.dumps(SEGMENT_BODY))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from covercert.cli import main; "
            "assert main(['witness', '--seed', '2', '--out', sys.argv[2] + '/ball.json']) == 0; "
            "assert main(['witness', '--seed', '1', '--body', sys.argv[2] + '/segment.json', "
            "'--eps', '0.4', '--samples', '500', '--out', sys.argv[2] + '/seg.json']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", code, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads((tmp_path / "ball.json").read_text())["verdict"] is True


def test_bench_tracer_wraps_every_layer():
    """bench/tracer.py wraps covercert's layer functions by module and name;
    a moved or renamed function must not silently lose its spans. install()
    patches covercert globally, so it runs in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    # the witness module's own references must be the wrapped functions too
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracer; "
            "import covercert.witness as w; t = tracer.Tracer(); tracer.install(t); "
            "print(sorted(t.missing)); print(all(hasattr(f, '__wrapped__') for f in "
            "(w.family_counts, w.build_coclique, w.build_cover_family, "
            "w.verify_witness_certificate)))")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


# Public names kept without a caller in src/, and why.
UNCALLED_BY_DESIGN = {
    "audit_orthogonal_net": "the direct check that the certified O(2) and O(3) "
                            "grids cover within delta; tests compare it with an SVD",
}


def _src_trees_and_callers() -> tuple[dict, set]:
    """The parsed modules of src/covercert by file name, and the names
    loaded or read as attributes by each top-level statement of every module
    but __init__.py, less the statement's own name: a definition and its
    recursion are no caller."""
    root = Path(__file__).resolve().parents[1]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "covercert").glob("*.py"))}
    called = set()
    for module, tree in trees.items():
        if module != "__init__.py":
            for stmt in tree.body:
                called |= {node.id if isinstance(node, ast.Name) else node.attr
                           for node in ast.walk(stmt)
                           if isinstance(node, (ast.Name, ast.Attribute))
                           } - {getattr(stmt, "name", None)}
    return trees, called


def _package_imports(trees: dict) -> list:
    """(module, imported module, name, bound as, statement) for every name
    that an import statement in src/covercert binds from a covercert
    module; name is None when the statement binds the module itself."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(module, a.name.split(".")[1] + ".py", None, a.asname, node)
                          for a in node.names if a.name.startswith("covercert.")]
            elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "covercert"
                                                        or node.module.startswith("covercert.")):
                source = (node.module or "").removeprefix("covercert").lstrip(".")
                found += [(module, f"{source}.py", a.name, a.asname or a.name, node) if source
                          else (module, f"{a.name}.py", None, a.asname or a.name, node)
                          for a in node.names]
    return found


def test_package_imports_run_one_way():
    """Within src/covercert: no function body imports from the package,
    the imports between modules form a DAG, and no module imports or reads
    another module's private (_name) attribute."""
    trees, _ = _src_trees_and_callers()
    imports = _package_imports(trees)
    nested = sorted({f"{module}:{node.lineno}" for module, _, _, _, node in imports
                     if node not in trees[module].body})
    private = [f"{module}:{node.lineno}: {source} {name}" for module, source, name, _, node
               in imports if name is not None and name.startswith("_")]
    for module, source, bound in {(m, s, b) for m, s, name, b, _ in imports if name is None}:
        private += [f"{module}:{node.lineno}: {source} {node.attr}"
                    for node in ast.walk(trees[module])
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == bound and node.attr.startswith("_")
                    and not node.attr.startswith("__")]
    graph = {module: set() for module in trees}
    for module, source, _, _, _ in imports:
        graph[module].add(source)
    order = []
    while ready := [m for m in graph if m not in order and graph[m] <= set(order)]:
        order += ready
    # the modules on an import cycle or importing one
    cyclic = sorted(set(graph) - set(order))
    assert (nested, sorted(private), cyclic) == ([], [], [])


def test_every_public_name_has_a_caller():
    """Each module-level public def or class of src/covercert is named in
    some src module other than __init__.py (outside its own body, and not
    only by an import), is wrapped by bench/tracer.py, is imported by the
    acceptance tests, or is listed in UNCALLED_BY_DESIGN."""
    root = Path(__file__).resolve().parents[1]
    trees, called = _src_trees_and_callers()
    public = {node.name: module for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    tracer = ast.parse((root / "bench" / "tracer.py").read_text(encoding="utf-8"))
    wrapped = {node.elts[1].value for node in ast.walk(tracer)
               if isinstance(node, ast.Tuple) and len(node.elts) == 4
               and isinstance(node.elts[1], ast.Constant)}
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) for alias in node.names}

    unreached = sorted(f"{public[name]}:{name}" for name in public
                       if name not in called | wrapped | imported | set(UNCALLED_BY_DESIGN))
    assert unreached == []
    # an exception that gains a caller leaves the list
    assert set(UNCALLED_BY_DESIGN) <= set(public) - called - wrapped - imported


def test_every_private_helper_has_a_src_caller():
    """Each module-level private def of src/covercert is named in src
    outside its own body: a helper that only the tests call is dead code."""
    trees, called = _src_trees_and_callers()
    private = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    assert len(private) > 30
    assert [name for name in private if name.split(":")[1] not in called] == []


def test_one_block_budget_sizes_every_blocked_loop():
    """geom_core.BLOCK_ELEMS is the only module-level name of src/covercert
    that holds a block, batch or chunk size, and no module imports it by
    name: a bound copy would keep its value when geom_core.BLOCK_ELEMS is
    set, and the loop reading it would miss the setting."""
    trees, _ = _src_trees_and_callers()
    sizes = sorted(
        f"{module}:{name}" for module, tree in trees.items() for stmt in tree.body
        for name in ([stmt.name] if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else
                     [node.id for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)])
        if any(word in name for word in ("CHUNK", "BATCH", "BLOCK", "ELEMS")))
    imported = [f"{module}:{node.lineno}" for module, _, name, _, node in _package_imports(trees)
                if name == "BLOCK_ELEMS"]
    assert (sizes, imported) == (["geom_core.py:BLOCK_ELEMS"], [])


def test_thickened_body_reads_its_base_through_the_base_protocol():
    """ThickenedBody takes the base's sets from its slab_sets and
    slab_scale: its class body names no base class and makes no isinstance
    test, so a new base kind needs only within and those two values."""
    trees, _ = _src_trees_and_callers()
    cls = next(node for node in trees["bodies.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "ThickenedBody")
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(cls)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert named & {"HalfspaceIntersectionBody", "BallIntersectionBody", "isinstance"} == set()


def test_row_norms_are_computed_in_one_place():
    """No np.linalg.norm(..., axis=...) in src/covercert outside
    geom_core.row_norms: every row norm goes through it, so one rule gives
    their bits. A norm of one vector takes no axis and is not counted."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "src" / "covercert").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "norm"
                        and (len(node.args) >= 3
                             or any(kw.arg == "axis" for kw in node.keywords))):
                    found.append((path.name, getattr(stmt, "name", None)))
    assert found == [("geom_core.py", "row_norms")]

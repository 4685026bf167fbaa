"""Output checks of the benchmark's CLI calls.

Each call's output file is checked against what the call must produce, and
the seeded fields that define its result are hashed. The hash covers those
fields only, not the raw bytes, so a certificate in a different but
equivalent layout still matches its reference.
"""

from __future__ import annotations

import csv
import hashlib
import json

WITNESS_FIELDS = ("X", "per_member_counts", "verdict", "diam_X", "non_coverage_method")


def digest(fields: dict) -> str:
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _witness(path: str) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    cert = json.loads(raw)
    return {"ok": cert["verdict"] is True, "reason": "verdict is not true",
            "semantic": digest({k: cert[k] for k in WITNESS_FIELDS}),
            "cert_sha256": hashlib.sha256(raw).hexdigest(), "cert_bytes": len(raw)}


def _verify(path: str) -> dict:
    report = _load(path)
    return {"ok": report["pass"] is True and report["verdict"] is True,
            "reason": "certificate failed verification"}


def _audit(path: str) -> dict:
    out = _load(path)
    return {"ok": out["pass"] is True, "reason": "audit did not pass",
            "semantic": digest({"pass": out["pass"], "failures": out["failures"]})}


def _cover_audit(path: str, fault_injected: bool) -> dict:
    """The normal audit must find no failure; the fault-injected one must
    find some, which its pass flag then reports."""
    out = _load(path)
    report = out["report"]
    ok = out["pass"] is True and (report["failures"] > 0) == fault_injected
    return {"ok": ok, "reason": "fault injection went undetected" if fault_injected
            else "audit did not pass",
            "semantic": digest({"pass": out["pass"], "trials": report["trials"],
                                "failures": report["failures"]})}


def _jung(path: str) -> dict:
    out = _load(path)
    return {"ok": out["pass"] is True, "reason": "jung-check did not pass",
            "semantic": digest({"pass": out["pass"], "trials": out["clouds"]["trials"]})}


def _bounds_sweep(path: str) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = [int(r["n"]) for r in rows] == list(range(2, 101))
    return {"ok": ok, "reason": "sweep rows do not cover n = 2..100"}


CHECKS = {
    "witness": _witness,
    "verify": _verify,
    "cover_audit": lambda p: _cover_audit(p, fault_injected=False),
    "fault_audit": lambda p: _cover_audit(p, fault_injected=True),
    "edges": _audit,
    "cone": _audit,
    "sweep": _audit,
    "jung": _jung,
    "bounds_sweep": _bounds_sweep,
}


def check_call(name: str, rc, path: str) -> dict:
    """`ok` says whether the call did what it must; `semantic` is the hash
    of its seeded result fields, where the call has any."""
    if rc != 0:
        return {"ok": False, "reason": f"exit code {rc}"}
    try:
        return CHECKS[name](path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"ok": False, "reason": f"unreadable output: {exc!r}"}

"""Constructive machinery behind a volume lower bound for universal
covers, at desk scale: exact geometric primitives, body oracles, isometry
nets, randomized coclique construction, and log-space bound evaluators —
everything needed to build and independently re-verify a non-cover witness
certificate.
"""

__version__ = "0.1.0"

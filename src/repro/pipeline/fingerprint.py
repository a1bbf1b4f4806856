"""Deterministic fingerprints for pipeline stages.

A fingerprint is the SHA-256 of a canonical-JSON rendering of a stage's
identity: its name, its version, and a token for every declared input.
Tokens come from :func:`cache_token` — objects participate either by
being plain data, by being (frozen) dataclasses, or by exposing a
``cache_token()`` method (scenarios, benchmark runners, distillers).

Fingerprints are stable across processes and Python versions (SHA-256
over sorted-key JSON, never ``hash()``), which is what makes the
on-disk artifact store valid across runs.

An object whose token is large and fingerprinted many times (a
scenario's spec) may return a :class:`Canonical` from its
``cache_token()``: the token normalized and rendered once.
:func:`digest` splices that rendering into the same bytes it would
otherwise produce, so a sweep renders each scenario once instead of
once per trial.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

__all__ = ["Canonical", "cache_token", "canonical_json", "digest"]

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=True)


class Canonical:
    """A cache token normalized and rendered to canonical JSON once.

    Its owner decides how long it stays valid; the token must not be
    mutated, since :func:`cache_token` hands it out as is.
    """

    __slots__ = ("token", "text")

    def __init__(self, token: Any):
        self.token = cache_token(token)
        self.text = canonical_json(self.token)


def cache_token(obj: Any) -> Any:
    """A JSON-able, deterministic token for ``obj``.

    Raises ``TypeError`` for objects with no stable identity — better a
    loud failure than a fingerprint that silently ignores an input.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if type(obj) is Canonical:
        return obj.token
    token_method = getattr(obj, "cache_token", None)
    if callable(token_method):
        return cache_token(token_method())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__qualname__,
                **{f.name: cache_token(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, (list, tuple)):
        return [cache_token(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): cache_token(value) for key, value in obj.items()}
    raise TypeError(
        f"{type(obj).__qualname__} has no stable cache token; give it a "
        f"cache_token() method or pass plain data")


def canonical_json(token: Any) -> str:
    """Sorted-key, minimal-separator JSON — the hashed byte form."""
    return _ENCODER.encode(token)


def _render(obj: Any) -> str:
    """``canonical_json(cache_token(obj))``, taking the text of every
    :class:`Canonical` reached through plain dicts alone — where a stage
    fingerprint keeps its scenario — as rendered.  The entries between
    two such values render in one piece; their braces are dropped."""
    if type(obj) is not dict:
        token_method = getattr(obj, "cache_token", None)
        if callable(token_method):
            obj = token_method()
        if type(obj) is Canonical:
            return obj.text
        return canonical_json(cache_token(obj))
    items = {str(key): value for key, value in obj.items()}
    parts = []
    run = {}
    for key in sorted(items):
        value = items[key]
        if type(value) is not dict:
            token_method = getattr(value, "cache_token", None)
            if callable(token_method):
                value = token_method()
            if type(value) is not Canonical:
                run[key] = value
                continue
        if run:
            parts.append(canonical_json(cache_token(run))[1:-1])
            run = {}
        parts.append(canonical_json(key) + ":" + _render(value))
    if not parts:
        return canonical_json(cache_token(run))
    if run:
        parts.append(canonical_json(cache_token(run))[1:-1])
    return "{" + ",".join(parts) + "}"


def digest(token: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``token``."""
    return hashlib.sha256(_render(token).encode("utf-8")).hexdigest()

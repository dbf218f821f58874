"""Content-addressed keys for run specifications.

A :class:`~repro.jobs.spec.RunSpec` is pure data, so two specs describing
the same simulation serialise to the same canonical JSON document and
therefore hash to the same SHA-256 key — across processes, machines and
Python hash-randomisation seeds. The key is what the result cache and the
batch deduplication are addressed by, which makes the determinism
guarantee load-bearing:

* dictionaries are serialised with sorted keys and no whitespace;
* floats use ``repr``-style shortest round-trip formatting (the CPython
  ``json`` default), so bit-identical floats produce identical text;
* NaN/Infinity are rejected (``allow_nan=False``) — a spec containing
  them has no canonical form;
* the digest is domain-separated with a versioned prefix so a schema bump
  invalidates every old key at once.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import JobError

__all__ = ["SPEC_SCHEMA_VERSION", "canonical_json", "spec_key"]

#: Version of the RunSpec wire schema; bumping it invalidates all keys.
SPEC_SCHEMA_VERSION = 3

#: Domain-separation prefix folded into every digest.
_KEY_DOMAIN = b"repro.jobs.spec/v%d\x00" % SPEC_SCHEMA_VERSION


def canonical_json(obj: Any) -> str:
    """Serialise *obj* to its unique canonical JSON text.

    Only JSON-native types (dict/list/str/int/float/bool/None) are
    accepted; anything else — including NaN and Infinity — raises
    :class:`~repro.errors.JobError`, because such values have no stable
    canonical encoding.
    """
    try:
        return json.dumps(
            obj,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise JobError(f"object has no canonical JSON form: {exc}") from exc


def spec_key(spec: Any) -> str:
    """SHA-256 hex key of a run spec (or any canonical-JSON-able dict).

    Accepts either a :class:`~repro.jobs.spec.RunSpec` (anything with a
    ``to_dict`` method) or a plain dictionary.
    """
    payload = spec.to_dict() if hasattr(spec, "to_dict") else spec
    digest = hashlib.sha256()
    digest.update(_KEY_DOMAIN)
    digest.update(canonical_json(payload).encode("ascii"))
    return digest.hexdigest()

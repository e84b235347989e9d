"""Append-only result catalogue: newline-delimited JSON records.

Each record stores a digest of the inputs, the computed result, the engine
version and the wall time.  Records are never overwritten; when the same
digest reappears with a different result, under any engine version, the new
record is appended with a conflict flag and a warning goes to stderr (the
warning names the engine version of the earlier record).
Corrupt lines are skipped with a warning, never a crash.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import sys
from typing import NamedTuple

from .partitions import load_json


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_inputs(obj) -> str:
    """Content hash of the canonical JSON form of the inputs."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class CatalogEntry(NamedTuple):
    input_digest: str
    result: object
    engine_version: str
    wall_time_s: float
    command: str = ""
    conflict: bool = False

    @classmethod
    def from_json_dict(cls, data: dict) -> "CatalogEntry":
        """The record from its fields in ``data``; a missing field with no default is a TypeError."""
        return cls(**{name: data[name] for name in cls._fields if name in data})


def _iter_entries(path: str):
    with open(path, "rb") as fh:  # bytes, so a line that is not UTF-8 is one more corrupt line
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:  # TypeError: not an object, or a field missing
                yield CatalogEntry.from_json_dict(load_json(line, "undecodable JSON"))
            except (ValueError, TypeError) as exc:
                print(f"warning: {path}:{lineno}: skipping corrupt catalogue line ({exc})", file=sys.stderr)


def catalog_append(entry: CatalogEntry, path: str) -> CatalogEntry:
    """Append an entry; flag it when an earlier record disagrees on the result.

    An exclusive lock on the file covers the scan and the append, so
    concurrent writers neither interleave lines nor miss each other's records.
    """
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file is closed
        conflict = entry.conflict
        # Earlier results come back from JSON, so compare encodings: a tuple
        # in the new result reads back as a list.
        result = canonical_json(entry.result)
        for prior in _iter_entries(path):
            if prior.input_digest == entry.input_digest and canonical_json(prior.result) != result:
                conflict = True
                print(
                    f"warning: catalogue digest {entry.input_digest[:12]} already has a different result "
                    f"(engine {prior.engine_version}); keeping both",
                    file=sys.stderr,
                )
                break
        flagged = entry._replace(conflict=conflict)
        fh.write(canonical_json(flagged._asdict()) + "\n")
    return flagged

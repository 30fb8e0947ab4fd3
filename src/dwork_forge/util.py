"""Helpers shared across layers: deterministic serialization and its schema
version for the CLI and the acceptance report, the root of every failed check, and the row blocks
that bound the temporaries of the numpy passes.

The package fails in two ways only: bad input raises a ValueError (the CLI
prints one ``error:`` line and exits 2), and a failed check of a computed
result raises a VerificationFailed (one ``error:`` line, exit 1)."""

from __future__ import annotations

import json

BLOCK_ENTRIES = 1 << 14    # entries of one numpy pass over a block of rows
SCHEMA_VERSION = 1         # of every JSON document the CLI and selftest write


class VerificationFailed(Exception):
    """A check of a verified result failed; every layer's check failures
    subclass it."""


def check(cond, msg):
    """Raise VerificationFailed(msg) unless cond; python -O keeps it."""
    if not cond:
        raise VerificationFailed(msg)


def row_blocks(rows, width=1):
    """Slices that cover range(rows), each of about BLOCK_ENTRIES / width rows,
    so a pass over one block of a rows x width array makes small temporaries."""
    step = max(1, BLOCK_ENTRIES // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

"""Helpers shared across layers: deterministic serialization for the CLI and
the acceptance report, verification checks that survive ``python -O``, and
the row blocks that bound the temporaries of the numpy passes."""

from __future__ import annotations

import json

BLOCK_ENTRIES = 1 << 14    # entries of one numpy pass over a block of rows


class VerificationFailed(Exception):
    """A check of a verified result failed."""


def check(cond, msg):
    """Raise VerificationFailed(msg) unless cond; unlike assert, -O keeps it."""
    if not cond:
        raise VerificationFailed(msg)


def row_blocks(rows, width=1):
    """Slices that cover range(rows), each of about BLOCK_ENTRIES / width rows,
    so a pass over one block of a rows x width array makes small temporaries."""
    step = max(1, BLOCK_ENTRIES // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

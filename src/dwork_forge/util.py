"""Deterministic serialization shared by the CLI and the acceptance report."""

from __future__ import annotations

import json


def stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

"""The JSON form shared by the frozen result types."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np


class Record:
    """Base of the frozen dataclass results: one JSON key per field, in
    field order. Arrays become nested lists and a nested record its own
    dict; a type whose JSON form differs overrides :meth:`to_json_dict`."""

    def to_json_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def _own(self, name: str, dtype=float) -> np.ndarray:
        """Replace the array field ``name`` with a read-only C-ordered copy,
        so the caller's array stays writable and cannot change the record;
        returns the copy."""
        arr = np.array(getattr(self, name), dtype=dtype, order="C")
        arr.flags.writeable = False
        object.__setattr__(self, name, arr)
        return arr


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Record):
        return value.to_json_dict()
    return value

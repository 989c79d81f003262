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


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Record):
        return value.to_json_dict()
    return value

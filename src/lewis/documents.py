"""One JSON format for the toolkit's documents.

The arch config, the activation profile, the sparsity plan and the merge
recipe are dataclasses that inherit `Document`, naming their error class:
`class SparsityPlan(Document, error=PlanError)`. A document's fields are
its JSON keys. `save` writes canonical JSON (sorted keys, no whitespace)
atomically and `digest` is the sha256 of those same bytes, so a digest
names a file's content exactly. `load` reads the file with the one JSON
reader (`checkpoint._json_object`: UTF-8, one object, no key twice), then
rejects an unknown key or a missing required one, by name; the class's
`__post_init__` then checks the values. Every failure is a MergeError
prefixed with the file's path; any other exception is a bug.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from pathlib import Path
from typing import ClassVar

from .checkpoint import _json_object, _os_path, _write_atomic
from .errors import MergeError


def _json_value(value: object) -> object:
    """`value` as JSON data: a nested dataclass (plan bounds) becomes the
    list of its field values, and dict keys (block ids) become strings
    before json.dumps sorts them. Digests depend on that string order
    ("10" between "1" and "2"), not on the int order."""
    if dataclasses.is_dataclass(value):
        return dataclasses.astuple(value)
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    return value


class Document:
    """Save, digest and load for a dataclass whose fields are its JSON keys."""

    _error: ClassVar[type[MergeError]]

    def __init_subclass__(cls, *, error: type[MergeError], **kwargs):
        super().__init_subclass__(**kwargs)
        cls._error = error

    def _canonical(self) -> bytes:
        doc = {f.name: _json_value(getattr(self, f.name)) for f in dataclasses.fields(self)}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    def save(self, path: str | Path) -> None:
        _write_atomic(path, [self._canonical()])

    def digest(self) -> str:
        return hashlib.sha256(self._canonical()).hexdigest()

    @classmethod
    def load(cls, path: str | Path):
        doc = _json_object(Path(_os_path(path)).read_bytes(), str(path), cls._error)
        params = inspect.signature(cls).parameters  # the fields plus any InitVar, read but not saved
        known = list(params)
        unknown = sorted(doc.keys() - set(known))
        if unknown:
            raise cls._error(f"{path}: unknown fields {unknown}; known: {known}")
        missing = [name for name, p in params.items() if name not in doc and p.default is p.empty]
        if missing:
            raise cls._error(f"{path}: missing required fields {missing}")
        try:
            return cls(**doc)
        except MergeError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

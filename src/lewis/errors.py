"""Exception hierarchy for the merge toolkit.

Every failure the library raises on purpose derives from MergeError so
callers (and the CLI) can catch one type. Checkpoint-file problems get
their own subtree with one class per failure mode; messages always name
the offending tensor where one exists. `load_document` turns a malformed
JSON document (arch, profile, plan, recipe) into its own subclass.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable


class MergeError(Exception):
    """Base class for all toolkit errors."""


class CheckpointError(MergeError):
    """Base class for checkpoint container problems."""


class HeaderLengthError(CheckpointError):
    """The 8-byte header-length prefix is missing or inconsistent with the file."""


class HeaderParseError(CheckpointError):
    """The header bytes are not a valid structured-text tensor table."""


class DataOffsetError(CheckpointError):
    """A tensor's data offsets overlap another tensor or fall outside the file."""


class UnknownDtypeError(CheckpointError):
    """A tensor declares a dtype string the toolkit does not support."""


class InvalidTensorError(CheckpointError):
    """A tensor violates the container invariants (empty shape, zero elements, ...)."""


class KeysetMismatchError(MergeError):
    """Two checkpoints that must share a keyset do not."""


class ShapeMismatchError(MergeError):
    """Same tensor name, different shapes between two checkpoints."""


class ProfileMismatchError(MergeError):
    """Two activation profiles disagree on layer ids or norm convention."""


class PlanError(MergeError):
    """A sparsity plan is invalid or lacks a density some tensor needs."""


class RecipeError(MergeError):
    """A merge recipe is malformed or internally inconsistent."""


class ArchError(MergeError):
    """A checkpoint does not match the architecture it is being run as."""


class CalibrationError(MergeError, ValueError):
    """A calibration JSONL file is empty or holds a malformed record.

    Also a ValueError, so callers that catch ValueError from
    `CalibrationSet.from_file` keep working.
    """


def load_document(path: str | Path, build: Callable[[Any], Any], error: type[MergeError]) -> Any:
    """Parse the JSON file at `path` and build an object from it with `build`.

    Invalid JSON, a missing field (KeyError) and a field of the wrong name,
    type or value (AttributeError, TypeError, ValueError) raised while
    building become `error`, prefixed with the path. A MergeError that
    `build` raises keeps its class and gains the path prefix if it lacks it.
    """
    try:
        return build(json.loads(Path(path).read_text()))
    except MergeError as exc:
        if str(exc).startswith(str(path)):
            raise
        raise type(exc)(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    except KeyError as exc:
        raise error(f"{path}: missing required field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise error(f"{path}: {exc}") from exc

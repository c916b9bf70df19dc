"""Exception hierarchy for the merge toolkit.

Every failure the library raises on purpose is a MergeError, and a
MergeError is a ValueError, so callers (and the CLI) catch one type; any
other exception from the library, an OSError aside, is a bug. Checkpoint-file
problems get their own subtree with one class per failure mode; messages
always name the offending tensor where one exists. Each JSON document type
has its own class (ArchError, ProfileMismatchError, PlanError, RecipeError):
loading a malformed document raises it, prefixed with the file's path (see
documents.py). Every JSON input is read by `checkpoint._json_object`, which
raises its caller's class: `not valid JSON: …` or `must be a JSON object, got …`.
"""


class MergeError(ValueError):
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


class NonFiniteTensorError(CheckpointError):
    """A stored tensor holds NaN or an infinity where finite weights are required."""


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
    """An arch file is malformed, or a checkpoint does not match the architecture it is run as."""


class CalibrationError(MergeError):
    """A calibration set or file is empty, or holds a malformed record or a too-short sample."""

"""Exception types shared across the package.

The CLI maps these onto its stable exit codes, so raising the right
class matters more than the message wording.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """Bad or unknown configuration key/value."""


class DatasetError(ValueError):
    """Dataset directory or contents are unusable."""


class PpmParseError(ValueError):
    """Malformed PPM stream; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset


class DivergenceError(ValueError):
    """A model produced non-finite values: a training loss or parameter, or logits."""


class ImageSizeError(ValueError):
    """Input image has the wrong dimensions for the model."""


class ArchiveError(ValueError):
    """Weight archive is malformed or inconsistent with the model."""


class CapabilityError(RuntimeError):
    """The model lacks a structural capability (e.g. CAM needs a GAP head)."""

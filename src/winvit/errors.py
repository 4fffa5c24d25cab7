"""Exception hierarchy shared by every winvit module.

The CLI maps these onto exit codes: configuration problems exit 2,
checkpoint problems exit 3, everything else exits 1.
"""


class WinvitError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(WinvitError):
    """Tensor dimensions are incompatible with the requested operation."""


class GeometryError(WinvitError):
    """Token grid and window size do not tile (H or W not divisible by M)."""


class ConfigError(WinvitError):
    """A configuration value violates its documented constraints."""


class ContractError(WinvitError):
    """An API precondition was violated (e.g. non-scalar loss, foreign tape)."""


class NumericsError(WinvitError):
    """A computation produced non-finite values; raised as its subclass
    :class:`DivergenceError`."""


class DivergenceError(NumericsError):
    """Training loss became non-finite or ran away; the loop aborted."""


class DataError(WinvitError):
    """A dataset manifest row or image file could not be used."""


class CheckpointError(WinvitError):
    """Base class for checkpoint load/save failures."""


class CheckpointMagicError(CheckpointError):
    """The file does not start with the expected magic/version header."""


class CheckpointTruncatedError(CheckpointError):
    """The file ended before the declared payload was complete."""


class CheckpointShapeError(CheckpointError):
    """The stored config differs from a requested one, or a section from its header."""

"""Exception types raised across the package."""


class ParkingError(ValueError):
    """Base class for all domain errors."""


class InvalidPreference(ParkingError):
    """Not a valid parking preference: empty, or an entry not an integer in 1..n."""


class ShiftOutOfRange(ParkingError):
    """The shift is negative, not an integer, or pushes some entry below spot 1."""


class EmptyIndexSet(ParkingError):
    """Restriction to an empty set of car indices."""


class NotZeroExcess(ParkingError):
    """Decomposition requested at a position where the excess is nonzero."""


class LengthMismatch(ParkingError):
    """Per-car backward windows do not match the number of cars."""


class NotNonincreasing(ParkingError):
    """Operation requires a nonincreasing preference."""


class TooShort(ParkingError):
    """Completeness is only defined for preferences with at least two cars."""


class NotComplete(ParkingError):
    """Operation requires a complete preference."""


class NotMaximalInterval(ParkingError):
    """Given interval is not a maximal critical interval of the preference."""


class PreconditionFailed(ParkingError):
    """Inputs do not satisfy the operation's stated precondition."""


class SizeLimitExceeded(ParkingError):
    """Requested exhaustive computation is above the configured size cap."""


class UnknownProperty(ParkingError):
    """No sweep property registered under the requested name."""


class VerificationFailed(ParkingError):
    """A check found a counterexample to a property that should always hold."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample

"""Exception types shared across the package."""


class InvarsimError(Exception):
    """Base class for all package errors."""


class ConfigError(InvarsimError):
    """Invalid configuration: bad priors, malformed JSON, schema violations.

    ``json_path`` points at the offending entry when known, e.g.
    ``classes[2].probability``.
    """

    def __init__(self, message, json_path=None):
        self.json_path = json_path
        if json_path:
            message = f"{json_path}: {message}"
        super().__init__(message)


class PlacementError(InvarsimError):
    """An object could not be placed after the configured number of attempts."""

    def __init__(self, object_class, attempts):
        self.object_class = object_class
        self.attempts = attempts
        super().__init__(
            f"could not place object of class {object_class!s} after "
            f"{attempts} rejection-sampling attempts; region may be saturated"
        )


class OutOfBoundsError(InvarsimError):
    """A footprint or rectangle falls outside the world/image bounds."""


class DynamicsPathError(ConfigError):
    """A dynamics keyframe references a parameter path that does not resolve."""


class MissingBufferError(InvarsimError):
    """A ground-truth buffer required for the requested operation is absent."""


class PatchSamplingError(InvarsimError):
    """No (or not enough) eligible patch centers for a context at a scale."""

    def __init__(self, context, side, eligible, requested):
        self.context = context
        self.side = side
        self.eligible = eligible
        self.requested = requested
        super().__init__(
            f"context {context!s} at side {side}: requested {requested} "
            f"patches but only {eligible} eligible centers"
        )


class AllOccludedError(InvarsimError):
    """Every pixel of a patch is occluded; the residual is undefined."""


class PatchTooSmallError(InvarsimError):
    """Patch side below the minimum for a gradient-based measure."""


class MissingTemporalError(InvarsimError):
    """Spatio-temporal smoothness requested without both temporal neighbours."""


class RankDeficientError(InvarsimError):
    """Color observations are collinear; no plane can be fitted."""


class IdentityMismatchError(InvarsimError):
    """Two scenes do not share the same object identity set."""


class LabelMismatchError(InvarsimError):
    """Two rankings do not share the same label set."""

    def __init__(self, only_a, only_b):
        self.only_a = sorted(only_a)
        self.only_b = sorted(only_b)
        super().__init__(
            f"label sets differ: only in A: {self.only_a}; only in B: {self.only_b}"
        )


class IngestError(ConfigError):
    """Malformed ingested sequence: bad annotation, missing or mismatched frames."""

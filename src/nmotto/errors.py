"""Package-wide exception types."""


class PositivityViolation(RuntimeError):
    """Populations left [0, 1] beyond tolerance.

    Signals the parameter regime (large temperature or coupling) where
    the second-order time-local generator stops being a valid dynamical
    map.  Violations are surfaced, never clamped: clamping would
    silently corrupt every downstream energy balance.
    """

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


class DegenerateCycle(RuntimeError):
    """The two stroke maps compose to (nearly) the identity.

    The stroboscopic map then has no unique fixed point and the limit
    cycle is undefined, for instance when the coupling is too weak to
    move the populations (zero coupling takes the frozen mixture instead).
    """

    def __init__(self, message, p0=None):
        super().__init__(message)
        self.p0 = p0


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, bad range)."""

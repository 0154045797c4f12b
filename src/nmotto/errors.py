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
    """The two stroke maps compose to a map that does not contract:
    ``one_minus_p0`` = 1 - p0 = -expm1(A_h + A_c) is not positive.

    The stroboscopic map then has no unique attracting fixed point and
    the limit cycle is undefined, for instance when both decay rates
    underflow to zero (zero coupling takes the frozen mixture instead).
    """

    def __init__(self, message, one_minus_p0=None):
        super().__init__(message)
        self.one_minus_p0 = one_minus_p0


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, bad range)."""

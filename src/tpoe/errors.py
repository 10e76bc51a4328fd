"""Exception hierarchy shared by all tpoe modules."""


class TpoeError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatch(TpoeError):
    """Field shape or domain disagrees with what an operation expects."""


class NonHermitian(TpoeError):
    """Spectral coefficients of a would-be real field violate conjugate symmetry."""


class NotPurelyPeriodic(TpoeError):
    """Input carries time-mean content beyond tolerance."""


class NonSolenoidal(TpoeError):
    """Input carries divergence beyond tolerance."""


class IncompatibleMean(TpoeError):
    """Steady data has a nonzero spatial mean; the steady operator is not
    invertible on the constant mode of the torus."""


class InvalidExponent(TpoeError):
    """Lebesgue exponent outside the admissible range of the requested norm."""


class UnknownRecipe(TpoeError):
    """Manufactured-solution recipe id is not in the catalog."""


class InvalidGrid(TpoeError):
    """Scan grid specification is empty or ill-formed."""


class EmptySweep(TpoeError):
    """Parameter sweep was requested with an empty parameter list or ensemble."""


class SnapshotFormatError(TpoeError):
    """Field snapshot file is malformed or has an unsupported version."""


class ConfigError(TpoeError):
    """Run configuration file is missing, malformed, or inconsistent."""

"""Exception hierarchy and warning categories.

Two error families matter for the CLI exit-code contract:

* ``ValidationError`` and subclasses: bad inputs, schema violations and
  domain-guard trips. Mapped to exit code 2.
* ``NumericalError`` and subclasses: a computation could not deliver a
  trustworthy number (non-convergence, a non-finite result or an
  overflow). Mapped to exit code 3.

I/O failures are plain ``OSError`` (exit code 4).
"""

from __future__ import annotations

import sys
import warnings


class CasqError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CasqError):
    """Invalid input data, schema violation or domain-guard trip (exit 2)."""


class NumericalError(CasqError):
    """Numerical failure: non-convergence or non-finite evaluation (exit 3)."""


# -- validation family -------------------------------------------------------

class ParseError(ValidationError):
    """Malformed species database or scenario file; message carries the
    offending field path (and line number for JSON syntax errors)."""


class UnknownSpecies(ValidationError):
    """Scenario references a species name absent from the database."""


class UnitMismatch(ValidationError):
    """A scenario key exists but does not carry the expected unit suffix."""


class DuplicateSpecies(ValidationError):
    """Two species in one database share a name."""


class NotTwoLevel(ValidationError):
    """Operation requires a single-transition (two-level) species."""


class PoleProximity(ValidationError):
    """Polarizability requested within the guard band of a resonance."""


class NonPositiveDistance(ValidationError):
    """A distance that must be strictly positive is not."""


class ZeroImpactParameter(ValidationError):
    """Straight-line Sagnac closed form evaluated at y = 0."""


class NegativeRadicand(ValidationError):
    """The sixth-root length-scale radicand came out negative.

    Carries the signed radicand in ``value`` so callers can inspect it.
    """

    def __init__(self, message: str, value: float):
        super().__init__(message)
        self.value = value


class OutOfWindow(ValidationError):
    """Sampled trajectory evaluated outside its sample range."""


class ImproperWindow(ValidationError):
    """Operation requires a bounded time window but got an improper one."""


class CollisionGuard(ValidationError):
    """Path came closer to a surface or particle than the configured guard."""


class RWAViolation(ValidationError):
    """Photon pair off the energy-conservation shell beyond tolerance."""


class BadParameterPath(ValidationError):
    """Sweep parameter path does not resolve to a scalar in the scenario."""


# -- numerical family --------------------------------------------------------

class NonConvergent(NumericalError):
    """An integral missed its tolerance (an adaptive one by spending its
    subdivision budget first)."""


class NonFiniteEvaluation(NumericalError):
    """Integrand returned NaN or infinity; message reports the abscissa."""


# -- warnings ----------------------------------------------------------------

class CasqWarning(UserWarning):
    """Base class of the toolkit's physics-validity warnings."""


class NearFieldValidityWarning(CasqWarning):
    """Path is far enough from the spinning particle that the short-distance
    (nonretarded) derivation of the rotation phase starts to break down."""


class ParallelVelocityMismatchWarning(CasqWarning):
    """The two interferometer paths declare different parallel-velocity
    metadata; the two-path phase formula assumes a common parallel
    velocity."""


def show_warning(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` for command-line runs.

    The toolkit's own warnings print as one line, ``casq: warning:
    <Category>: <message>``: their source location lies inside casq and
    tells a user nothing. Other warnings print as Python prints them.
    """
    if issubclass(category, CasqWarning):
        text = f"casq: warning: {category.__name__}: {message}\n"
    else:
        text = warnings.formatwarning(message, category, filename, lineno, line)
    try:
        (sys.stderr if file is None else file).write(text)
    except OSError:
        pass  # stderr is gone: the warning is lost, as in Python's own display

"""Two-photon absorption spectra of Doppler-broadened three-level ladder
atoms driven by two counterpropagating monochromatic waves.

Layers, from the ground up:

  core          parameter objects, normalization, JSON round trip
  oracle        brute-force harmonic steady state at fixed velocity
  perturbative  closed-form weak-drive expansion, per velocity
  analytics     line profiles, widths, and peak displacements; depends
                only on core
  averaging     velocity averages: quadratures, the Gaussian closed forms,
                and the Lorentzian closed forms taken from analytics
  validation    cross-check suites tying the layers together
  cli           scan / figure / validate command line front end

The names below are the library API the README documents, plus the error
types the command line maps to exit codes; everything else stays reachable
through its module.
"""

from ._version import __version__

from .analytics import LineshapeParams, LocatorError, stark_shift, width_fwhm
from .averaging import QuadratureError, averaged_population, oracle_average
from .core import (AtomSpec, FieldSpec, NormalizedParams, ParameterError,
                   VelocityDistribution, denormalize, dump_parameters,
                   load_parameters, normalize)
from .oracle import OracleError

__all__ = [
    "__version__",
    # parameters
    "NormalizedParams", "LineshapeParams", "AtomSpec", "FieldSpec",
    "VelocityDistribution", "normalize", "denormalize", "dump_parameters",
    "load_parameters",
    # results
    "averaged_population", "oracle_average", "width_fwhm", "stark_shift",
    # errors
    "ParameterError", "OracleError", "QuadratureError", "LocatorError",
]

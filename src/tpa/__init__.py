"""Two-photon absorption spectra of Doppler-broadened three-level ladder
atoms driven by two counterpropagating monochromatic waves.

Layers, from the ground up:

  core          NormalizedParams, the one parameter set in gamma = 1
                units, taken by the solver, the series and the closed
                forms alike; its constructor states every parameter rule
  oracle        brute-force harmonic steady state at fixed velocity
  perturbative  closed-form weak-drive series of the dc upper population,
                one formula over each beam's resolvent moments: exact per
                velocity class (vectorized in Omega), or every profile's
                moments for an average, and the displacement of its peak
  averaging     velocity averages: quadratures, the averaged series and
                the averaged brute-force steady state
  analytics     line profiles read off that series, widths, and peak
                displacements
  validation    cross-check suites tying the layers together
  cli           scan / figure / validate command line front end

The names below are the library API the README documents, plus the error
types the command line maps to exit codes; everything else stays reachable
through its module.
"""

from ._version import __version__

from .analytics import LocatorError, stark_shift, width_fwhm
from .averaging import QuadratureError, averaged_population, oracle_average
from .core import NormalizedParams, ParameterError
from .oracle import OracleError

__all__ = [
    "__version__",
    # parameters
    "NormalizedParams",
    # results
    "averaged_population", "oracle_average", "width_fwhm", "stark_shift",
    # errors
    "ParameterError", "OracleError", "QuadratureError", "LocatorError",
]

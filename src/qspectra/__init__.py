"""qspectra: deformed spectral calculus.

A small numerical library around one finite-difference idea: replace the
logarithm in spectral aggregates (determinants, factorials, entropies)
by the q-logarithm ln_q x = (x^(1-q) - 1)/(1-q). The packages covers the
scalar q-algebra, deformed factorials/multinomials and their large-n
asymptotics, finite spectra and their effective action, zeta-function
continuation for infinite model spectra, the induced geometry on the
probability simplex, and a self-verification battery exposed through the
``qspectra`` command-line tool.
"""

from . import combinatorics, errors, geometry, qalgebra, spectrum, verify, zeta
from .errors import *
from .qalgebra import *
from .combinatorics import *
from .spectrum import *
from .zeta import *
from .geometry import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, qalgebra, combinatorics, spectrum, zeta, geometry, verify)
    for name in module.__all__
] + ["__version__"]

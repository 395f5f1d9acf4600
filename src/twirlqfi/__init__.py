"""Quantum Fisher information under dephasing from imperfect reference frames.

Each library module's __all__ is its export list; the package re-exports
those names, and its __all__ is their concatenation.  The cli module is not
re-exported.
"""

from . import channels, hilbert, metrology, models, probeopt
from .channels import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .metrology import *  # noqa: F403
from .models import *  # noqa: F403
from .probeopt import *  # noqa: F403

__all__ = (channels.__all__ + hilbert.__all__ + metrology.__all__ + models.__all__
           + probeopt.__all__)

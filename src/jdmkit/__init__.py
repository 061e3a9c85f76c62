"""Joint degree matrix toolkit.

Test a symmetric matrix of class-pair edge counts for realizability as a
simple labeled graph, build realizations, equalize degree spectra within
classes, connect any two realizations by a sequence of class-preserving
two-edge swaps, and sample realizations via stub-matching chains.
"""

import sys

from .balance import *
from .core import *
from .fileio import *
from .graphic import *
from .oracle import *
from .sampler import *
from .transform import *
from .cli import run

__version__ = "0.1.0"

# Each module lists its own public names.  They are read from sys.modules
# because the star imports rebind `balance` to the function of that name.
__all__ = ["__version__", "run"] + [
    name
    for module in ("core", "fileio", "graphic", "balance", "transform", "sampler", "oracle")
    for name in sys.modules[f"{__name__}.{module}"].__all__
]

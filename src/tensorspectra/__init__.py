"""Spectral calculus for dense tensors.

Higher-order SVD and per-mode spectra, Schatten-type and nuclear tensor
norms, trace-inequality diagnostics for tensor pairs, and construction plus
certification of norm subgradients at symmetric and orthogonally
decomposable points.
"""

import logging

# each module's __all__ is its one list of public names
from . import linalg, odeco, spectral, subdiff, tensor, vonneumann
from .linalg import *
from .odeco import *
from .spectral import *
from .subdiff import *
from .tensor import *
from .vonneumann import *

__version__ = "0.1.0"

# the modules log through children of this logger, silent until the
# application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    *tensor.__all__,
    *linalg.__all__,
    *spectral.__all__,
    *odeco.__all__,
    *vonneumann.__all__,
    *subdiff.__all__,
]

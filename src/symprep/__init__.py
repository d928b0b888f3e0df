"""symprep: low-depth quantum state preparation for reflection-symmetric
probability distributions via matrix-product-state disentanglers.

The package surface is each public module's `__all__`, in pipeline order.
statevec is not part of it: it is `circuit.simulate`'s kernel module.
"""

__version__ = "0.1.0"

from . import circuit, disentangler, dist, metrics, mps, numerics, pipeline
from .numerics import *
from .dist import *
from .mps import *
from .disentangler import *
from .circuit import *
from .metrics import *
from .pipeline import *

__all__ = [
    "__version__",
    *numerics.__all__,
    *dist.__all__,
    *mps.__all__,
    *disentangler.__all__,
    *circuit.__all__,
    *metrics.__all__,
    *pipeline.__all__,
]

"""Local polynomial conditional distribution estimation with certainty bands."""

from .errors import (
    CondBandsError,
    EmptyInput,
    InsufficientLocalData,
    InvalidBandwidth,
    NoCrossing,
    ParseError,
    QuadratureFailure,
    YRangeViolation,
    ZeroJointDensity,
)
# the ``__all__`` of each module below is its list of public names
from .kernels import *
from .estimator import *
from .bands import *
from .simulation import *
from .experiments import *

__version__ = "0.1.0"

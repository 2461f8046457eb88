"""Multivariate time-series forecasting toolkit.

Pooled attention (one fused tape node sums adaptive avg and max pooling
of query/key down to a fixed quarter-scale score matrix) fused
elementwise with the output of a bidirectional selective state-space
block, trained with Adam on MSE.
"""

from .tensor_core import Tensor

__version__ = "0.1.0"

__all__ = ["Tensor", "__version__"]

"""A reverse-mode automatic-differentiation engine over NumPy arrays.

This subpackage replaces the role PyTorch plays in the paper's original
implementation.  It provides a
:class:`~repro.tensor.tensor.Tensor` type that records a dynamic computation
graph and computes exact gradients via reverse-mode AD, plus the
neural-network primitives (:mod:`repro.tensor.functional`) needed by
:mod:`repro.nn`: fused softmax-cross-entropy, im2col convolution, pooling
and batch normalization.

All gradients are verified against central-difference numerics in
``tests/tensor/test_gradcheck.py``.
"""

from repro.tensor.tensor import (
    Tensor,
    arange,
    concat,
    full,
    is_grad_enabled,
    no_grad,
    ones,
    ones_like,
    randn,
    stack,
    tensor,
    uniform,
    zeros,
    zeros_like,
)
from repro.tensor import functional

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "randn",
    "uniform",
    "zeros_like",
    "ones_like",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "functional",
]

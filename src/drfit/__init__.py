"""Noise-robust neural network training by jointly learned observation
weights, with population-level analysis tools for the weighted logistic
estimator and experiment drivers around both.

The package namespace holds only ``__version__``; import names from the
submodules (``drfit.core``, ``drfit.data``, ``drfit.nn``, ``drfit.train``,
``drfit.metrics``, ``drfit.theory``, ``drfit.cli``).
"""

__version__ = "0.1.0"

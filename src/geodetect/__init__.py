"""geodetect: simulation and analysis of hidden geometric communities in random graphs.

The package implements the planted model in which a hidden vertex subset forms
a high-dimensional random geometric graph on the unit sphere while every other
edge is an independent coin flip with the same marginal probability.  It
provides exact series evaluation of signed-cycle expectations, the signed
triangle / scan / constrained-scan detection tests, low-degree Fourier
diagnostics, the Wishart and shifted-GOE matrix routes, and seeded Monte Carlo
harnesses for type I / type II error estimation.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cli", "detection", "ensembles", "graphs", "lowdeg", "sphere", "stats"})


def __getattr__(name: str):
    """A submodule, imported the first time it is read (PEP 562): `import
    geodetect` loads none of them, so each command loads only what it runs."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

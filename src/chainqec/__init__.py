"""Error-corrected quantum state transfer on engineered spin chains.

The package root exports the names of the README library example; the rest
of the API is imported from its submodule (chainqec.chain, chainqec.decoder,
chainqec.hilbert, ...).
"""

from .chain import pst_couplings
from .code import encode, minimal15
from .decoder import DecodeOptions, decode_pipeline
from .noise import inject_single_z

__version__ = "0.4.0"

__all__ = [
    "DecodeOptions",
    "decode_pipeline",
    "encode",
    "inject_single_z",
    "minimal15",
    "pst_couplings",
    "__version__",
]

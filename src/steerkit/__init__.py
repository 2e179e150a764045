"""steerkit: inference-time steering of analytic conditional denoisers.

Closed-form Gaussian and Gaussian-mixture denoisers with exact derivative
products, embedding-space reward ascent and coordinate-space likelihood
guidance on top of a probability-flow Euler sampler, task rewards (Gaussian
measurements, clipped distance constraints, density-map agreement), an
oracle-backed verification suite, and a config-driven experiment harness.

The package exports each submodule's __all__ and imports a submodule on first
use (PEP 562): `import steerkit` loads none, and an exported name loads the
submodules in _SUBMODULES order up to the one that exports it, so only a
verification name loads the verification suite. The harness and CLI are
imported from their modules.
"""

import importlib

__version__ = "0.1.0"
_SUBMODULES = ("models", "rewards", "samplers", "schedules", "steering", "tasks", "verification")


def __getattr__(name: str):
    """A submodule, or the exported name of one, imported on first use."""
    if name == "__all__":
        return [*(n for sub in _SUBMODULES for n in __getattr__(sub).__all__), "__version__"]
    if name in (*_SUBMODULES, "harness", "cli"):  # `from steerkit import cli` asks here first
        return importlib.import_module(f"{__name__}.{name}")
    for sub in () if name.startswith("__") else _SUBMODULES:
        if name in __getattr__(sub).__all__:
            return getattr(__getattr__(sub), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})

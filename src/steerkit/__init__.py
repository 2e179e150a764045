"""steerkit: inference-time steering of analytic conditional denoisers.

Closed-form Gaussian and Gaussian-mixture denoisers with exact derivative
products, embedding-space reward ascent and coordinate-space likelihood
guidance on top of a probability-flow Euler sampler, task rewards (Gaussian
measurements, clipped distance constraints, density-map agreement), an
oracle-backed verification suite, and a config-driven experiment harness.

The package exports each submodule's __all__; the harness and CLI are
imported from their modules.
"""

from . import models, rewards, samplers, schedules, steering, tasks, verification
from .models import *  # noqa: F403
from .rewards import *  # noqa: F403
from .samplers import *  # noqa: F403
from .schedules import *  # noqa: F403
from .steering import *  # noqa: F403
from .tasks import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *(name for module in (models, rewards, samplers, schedules, steering, tasks, verification)
      for name in module.__all__),
    "__version__",
]

"""Indoor optical wireless system toolkit.

Simulates indoor optical wireless (visible/IR light) channels room-by-room,
assigns access-point wavelengths to users by maximizing sum-SINR, and places
compute tasks across a mobile/fog/cloud hierarchy by minimizing total power.

Subpackages are deliberately flat:

- :mod:`owcfog.room`          room, APs, receiver and user positions (no numpy)
- :mod:`owcfog.channel`       ray-traced impulse responses, delay spread, bandwidth
- :mod:`owcfog.signal_model`  electrical signal/noise/SINR bookkeeping
- :mod:`owcfog.allocator`     WDMA sum-SINR assignment by branch and bound
- :mod:`owcfog.topology`      processing-node / network-route data model
- :mod:`owcfog.placement`     task placement by branch and bound + sweeps
- :mod:`owcfog.scenarios`     user drops, result bundles, stage chaining
- :mod:`owcfog.config`        config document schema, defaults, overrides
- :mod:`owcfog.cli`           command line entry points
- ``tests/oracles.py``        MILP row models, exhaustive oracles (test code)
"""

__version__ = "0.1.0"

from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError

__all__ = [
    "__version__",
    "ConfigError",
    "InfeasibleError",
    "ResourceLimitError",
]

"""Named, deterministic random-number streams.

Experiments must be reproducible *and* individually perturbable: changing
how many random draws the workload generator makes must not change the
packet sizes drawn by an unrelated component. Each subsystem therefore
asks the registry for its own independently-seeded stream by name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a root seed and a name."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory for named :class:`random.Random` streams.

    >>> reg = RngRegistry(seed=7)
    >>> a = reg.stream("workload")
    >>> b = reg.stream("workload")
    >>> a is b
    True
    >>> reg2 = RngRegistry(seed=7)
    >>> reg2.stream("workload").random() == RngRegistry(7).stream("workload").random()
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            # The registry is the one sanctioned construction site for
            # Random instances; everyone else draws from named streams.
            stream = random.Random(_derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """Create a child registry whose streams are independent of ours."""
        return RngRegistry(_derive_seed(self.seed, f"fork/{name}"))

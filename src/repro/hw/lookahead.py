"""Lookahead extraction for conservative parallel simulation.

The sharded engine (:mod:`repro.sim.shard`) advances every shard up to a
window barrier bounded by the *lookahead*: the minimum simulated latency
any event needs to cross from one shard to another. In this model the
only shard-crossing path is an inter-host link, and a frame handed to a
link at time ``t`` cannot arrive before ``t + propagation_us`` (the
serialization time only adds to that), so the propagation delay of the
fastest inter-host link is a safe lookahead.

Zero lookahead would collapse the barrier window to a point and the
parallel run to a lockstep crawl — worse, it breaks the conservative
guarantee that everything a window produces for a remote shard lands at
or after the next barrier. Cluster topologies must therefore keep a
strictly positive inter-host propagation delay; this module is where
that requirement is enforced.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.errors import ConfigurationError


def lookahead_from_latencies(latencies_us: Iterable[float]) -> float:
    """Minimum over the inter-host latencies (µs).

    Raises :class:`ConfigurationError` when none is given or the minimum
    is not positive: both would make conservative synchronization
    unsound.
    """
    values = list(latencies_us)
    if not values:
        raise ConfigurationError(
            "cannot derive a lookahead from an empty set of inter-host links"
        )
    lookahead = min(values)
    if lookahead <= 0:
        raise ConfigurationError(
            f"conservative synchronization needs a strictly positive "
            f"inter-host latency; got minimum {lookahead}"
        )
    return lookahead

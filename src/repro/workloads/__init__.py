"""Workload generators and benchmark applications.

* :mod:`~repro.workloads.traffic`   — arrival processes (CBR, Poisson,
  bursty hotspots).
* :mod:`~repro.workloads.flows`     — UDP open-loop and TCP closed-loop
  message senders over a simulated link.
* :mod:`~repro.workloads.sockperf`  — the sockperf-style micro-benchmark
  harness: :class:`~repro.workloads.sockperf.Testbed`, the one way to
  build and run a single-host experiment (stress, fixed-rate, latency),
  and the :func:`~repro.workloads.sockperf.udp_plateau` search.
* :mod:`~repro.workloads.multiflow` — the multi-container and hotspot
  layouts of Figures 14–16.
* :mod:`~repro.workloads.memcached` — the CloudSuite data-caching model
  (Figure 18).
* :mod:`~repro.workloads.webserving` — the CloudSuite web-serving model
  (Figure 17).
"""

from repro.workloads.flows import TcpSender, UdpSender
from repro.workloads.sockperf import Testbed, udp_plateau

__all__ = ["Testbed", "TcpSender", "UdpSender", "udp_plateau"]

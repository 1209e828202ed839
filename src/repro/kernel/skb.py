"""Socket-buffer (``sk_buff``) and flow models.

An :class:`Skb` is one unit travelling through the receive pipeline. Like
the kernel's ``sk_buff`` it carries the cached flow hash, the device it
currently belongs to (``dev_ifindex`` — the field Falcon mixes into its
CPU-selection hash), and enough metadata for GRO / IP-defragmentation to
merge wire packets back into application messages.

Message/segment model
---------------------
Applications send *messages*. A message larger than the path MTU becomes
multiple *wire packets*:

* **UDP** — IP fragments, reassembled late (``ip_defrag`` in the last
  stack the packet traverses);
* **TCP** — MSS-sized segments, merged early by GRO in the driver stage
  (when GRO is enabled) or accumulated at the socket otherwise.

``msg_id``/``frag_index``/``frag_count`` tie wire packets back to their
message; ``segs`` counts how many wire packets a merged skb represents.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.kernel.hashing import flow_hash

#: IP protocol numbers (the subset the reproduction uses).
PROTO_UDP = 17
PROTO_TCP = 6


class FlowKey:
    """A 5-tuple identifying a network flow, with its cached hash.

    ``flow_id`` names the flow within its simulated world; runs draw it
    from :meth:`repro.sim.context.SimContext.new_flow_id`.

    >>> a = FlowKey.make(1, 2, PROTO_UDP, 1000, 5001, flow_id=1)
    >>> b = FlowKey.make(1, 2, PROTO_UDP, 1000, 5001, flow_id=2)
    >>> a.hash == b.hash
    True
    """

    __slots__ = ("src_ip", "dst_ip", "proto", "sport", "dport", "hash", "flow_id")

    def __init__(
        self,
        src_ip: int,
        dst_ip: int,
        proto: int,
        sport: int,
        dport: int,
        flow_id: int,
    ) -> None:
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.proto = proto
        self.sport = sport
        self.dport = dport
        self.hash = flow_hash(src_ip, dst_ip, proto, sport, dport)
        self.flow_id = flow_id

    @classmethod
    def make(
        cls,
        src_ip: int,
        dst_ip: int,
        proto: int = PROTO_UDP,
        sport: int = 10000,
        dport: int = 5001,
        *,
        flow_id: int,
    ) -> "FlowKey":
        return cls(src_ip, dst_ip, proto, sport, dport, flow_id)

    def tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.src_ip, self.dst_ip, self.proto, self.sport, self.dport)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = {PROTO_UDP: "udp", PROTO_TCP: "tcp"}.get(self.proto, self.proto)
        return (
            f"<Flow {self.src_ip}:{self.sport}->{self.dst_ip}:{self.dport}/{proto}>"
        )


class Skb:
    """One packet (or GRO/defrag-merged super-packet) in the pipeline."""

    __slots__ = (
        "flow",
        "hash",
        "is_tcp",
        "size",
        "wire_size",
        "dev_ifindex",
        "msg_id",
        "msg_size",
        "frag_index",
        "frag_count",
        "segs",
        "seq",
        "t_send",
        "t_nic",
        "last_cpu",
        "encapsulated",
        "fastpath",
        "meta",
    )

    def __init__(
        self,
        flow: FlowKey,
        size: int,
        wire_size: Optional[int] = None,
        msg_id: int = 0,
        msg_size: Optional[int] = None,
        frag_index: int = 0,
        frag_count: int = 1,
        seq: int = 0,
        t_send: float = 0.0,
        encapsulated: bool = False,
        meta: Any = None,
    ) -> None:
        self.flow = flow
        self.hash = flow.hash
        #: Read by several step costs per packet, so computed once here
        #: (the flow, like its hash, never changes along the path).
        self.is_tcp = flow.proto == PROTO_TCP
        #: Payload bytes currently carried (changes on decap/merge).
        self.size = size
        #: Bytes occupying the wire, including all framing/encap overhead.
        self.wire_size = wire_size if wire_size is not None else size
        #: The network device currently processing this skb (``dev->ifindex``).
        self.dev_ifindex = 0
        self.msg_id = msg_id
        self.msg_size = msg_size if msg_size is not None else size
        self.frag_index = frag_index
        self.frag_count = frag_count
        #: Number of wire packets merged into this skb (GRO/defrag).
        self.segs = 1
        #: Per-flow wire sequence number (for in-order assertions).
        self.seq = seq
        #: Timestamp the application handed the message to the sender stack.
        self.t_send = t_send
        #: Timestamp the first byte reached the receiving NIC.
        self.t_nic = 0.0
        #: Core that last processed this skb (drives the locality model).
        self.last_cpu: Optional[int] = None
        #: True while the packet still wears its VXLAN outer header.
        self.encapsulated = encapsulated
        #: Flow-cache datapath verdict: None until the driver-exit check
        #: runs, 0 after a slow-path (miss) verdict, else the number of
        #: wire segments that took the cached fast path (defrag sums the
        #: per-fragment verdicts into the reassembled head).
        self.fastpath: Optional[int] = None
        #: Workload-specific payload (request objects etc.).
        self.meta = meta

    @property
    def is_fragment(self) -> bool:
        return self.frag_count > 1

    @property
    def is_last_fragment(self) -> bool:
        return self.frag_index == self.frag_count - 1

    def decapsulate(self, overhead: int) -> None:
        """Strip the VXLAN outer headers (``vxlan_rcv``)."""
        self.encapsulated = False
        self.size = max(self.size - overhead, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Skb flow={self.flow.flow_id} msg={self.msg_id} "
            f"frag={self.frag_index}/{self.frag_count} size={self.size}>"
        )

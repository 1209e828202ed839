"""Unit tests for the overlay package (containers and hosts)."""

import pytest

from repro.kernel.skb import PROTO_TCP, PROTO_UDP
from repro.kernel.stack import StackConfig
from repro.overlay.container import Container
from repro.overlay.host import Host
from repro.sim.engine import Simulator
from repro.sim.errors import TopologyError


class TestHostContainers:
    def make_host(self):
        return Host(Simulator(), StackConfig(mode="overlay"), num_cpus=8)

    def test_launch_assigns_unique_ips(self):
        host = self.make_host()
        a = host.launch_container("a")
        b = host.launch_container("b")
        assert a.private_ip != b.private_ip

    def test_duplicate_name_rejected(self):
        host = self.make_host()
        host.launch_container("a")
        with pytest.raises(TopologyError):
            host.launch_container("a")

    def test_container_listen_binds_socket(self):
        host = self.make_host()
        container = host.launch_container("srv")
        got = []
        socket = container.listen(
            5001, app_cpu=2, on_message=lambda s, skb, lat: got.append(skb)
        )
        flow = container.connect_flow(socket, src_ip=999, sport=1234, dport=5001)
        assert host.stack.sockets.lookup(flow) is socket

    def test_container_port_allocation(self):
        host = self.make_host()
        container = host.launch_container("c")
        ports = {container.allocate_port() for _ in range(5)}
        assert len(ports) == 5

    def test_attach_ingress(self):
        host = self.make_host()
        link = host.attach_ingress(bandwidth_gbps=100.0)
        assert host.ingress_link is link

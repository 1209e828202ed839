"""SIM105: counters that outlive the run."""

import itertools

_flow_ids = itertools.count(1)  # expect: SIM105
_packets_sent = 0


def new_flow_id():
    return next(_flow_ids)


def count_packet():
    global _packets_sent  # expect: SIM105
    _packets_sent += 1

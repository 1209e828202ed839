"""Clean twin of sim105_bad: the run's context owns its counters."""

import itertools


class RunContext:
    def __init__(self):
        self._flow_ids = itertools.count(1)
        self.packets_sent = 0

    def new_flow_id(self):
        return next(self._flow_ids)

    def count_packet(self):
        self.packets_sent += 1

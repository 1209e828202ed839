"""SIM101: reading the wall clock inside simulated code.

The rule resolves imports: an aliased ``time`` module and a name
imported from ``time`` are the same wall clock as ``time.time()``.
"""

import time
import time as _clock
from time import perf_counter


def timestamp_event(event):
    event.stamped_at = time.time()  # expect: SIM101
    return event


def elapsed_since(start):
    return _clock.monotonic() - start  # expect: SIM101


def stamp_now(event):
    event.stamped_at = perf_counter()  # expect: SIM101
    return event

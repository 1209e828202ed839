"""All three suppression forms, each silencing exactly one finding.

This file must lint clean: a line pragma, a file pragma and a
``@lint_exempt`` decorator each cover one would-be violation.
"""

# simlint: disable-file=SIM103

import time

from repro.analysis.pragmas import lint_exempt


def host_timestamp():
    return time.time()  # simlint: disable=SIM101


def drain(events):
    return sorted(events, key=id)


@lint_exempt("DES202", reason="fixture: demonstrates the decorator form")
def nap():
    time.sleep(0.01)

"""The analyzers' per-project findings memos must not outlive their key.

Each memo is keyed by ``id(project)`` so that the rules of one family
walk a project once. An id is only unique while its object lives: if the
memo let the project be collected, the next project allocated at the
same address would be served the previous project's findings.
"""

import gc
import weakref

import pytest

from repro.analysis.flow.rules_skb import typestate_findings
from repro.analysis.flow.rules_time import unit_findings
from repro.analysis.lint.core import Project
from repro.analysis.order.rules_causality import causality_findings
from repro.analysis.order.rules_flowcache import flowcache_findings
from repro.analysis.order.rules_partition import partition_findings
from repro.analysis.san.rules_cache import cache_findings
from repro.analysis.san.rules_skbown import skbown_findings


@pytest.mark.parametrize(
    "findings",
    [
        typestate_findings,
        unit_findings,
        causality_findings,
        flowcache_findings,
        partition_findings,
        cache_findings,
        skbown_findings,
    ],
)
def test_memo_keeps_its_project_alive(findings):
    project = Project(files=[])
    assert findings(project) == []
    ref = weakref.ref(project)
    del project
    gc.collect()
    assert ref() is not None

"""Mutation tests: the order rules must catch planted defects in the real code.

The acceptance bar for the family is not "runs clean on src" (a vacuous
analyzer does that too) — it is that seeding each of the three canonical
ordering bugs into a *copy of the real module* yields exactly the
expected ORD finding at the expected line:

* shard identity leaked into the (time, src, seq) merge key → ORD503;
* the RECORD_INVAL churn emission stripped of its propagation bound
  (timestamped at the bare shard clock) → ORD511;
* a FlowTable insert at lookup time, bypassing the slow-inflight
  ledger gate → ORD521.

Copies are analyzed out-of-tree (module=None), where every rule applies
unconditionally — strict by default.
"""

from pathlib import Path

from repro.analysis.runner import FAMILIES, analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
CLUSTER = REPO_ROOT / "src" / "repro" / "overlay" / "cluster.py"
FLOWCACHE = REPO_ROOT / "src" / "repro" / "kernel" / "flowcache.py"

ORDER_RULE_IDS = [rule.id for rule in FAMILIES["order"]]


def order_paths(paths):
    return analyze(paths, rule_ids=ORDER_RULE_IDS)


def findings_for(path):
    result = order_paths([str(path)])
    return [(f.line, f.rule) for f in result.findings]


def mutate(tmp_path, source: Path, old: str, new: str) -> Path:
    text = source.read_text()
    assert text.count(old) == 1, f"mutation anchor not unique: {old!r}"
    copy = tmp_path / source.name
    copy.write_text(text.replace(old, new))
    return copy


def line_of(path: Path, needle: str) -> int:
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        if needle in text:
            return lineno
    raise AssertionError(f"{needle!r} not found in {path}")


class TestCleanCopies:
    """The unmutated modules are clean even out-of-tree (module=None)."""

    def test_cluster_copy_is_clean(self, tmp_path):
        copy = tmp_path / CLUSTER.name
        copy.write_text(CLUSTER.read_text())
        result = order_paths([str(copy)])
        assert result.ok, result.to_text()

    def test_flowcache_copy_is_clean(self, tmp_path):
        copy = tmp_path / FLOWCACHE.name
        copy.write_text(FLOWCACHE.read_text())
        result = order_paths([str(copy)])
        assert result.ok, result.to_text()


class TestPlantedDefects:
    def test_shard_id_in_merge_key_yields_ord503(self, tmp_path):
        # _HostOutbox.emit assigns the merge key's src from the host
        # index (partition-invariant). Assign it from a shard index
        # instead and the key differs between 1-shard and N-shard runs.
        copy = mutate(
            tmp_path,
            CLUSTER,
            "CrossShardEvent(time, self.host_index, self._seq, kind, dst, payload)",
            "CrossShardEvent(time, self.shard_index, self._seq, kind, dst, payload)",
        )
        expected_line = line_of(copy, "self.shard_index, self._seq")
        assert findings_for(copy) == [(expected_line, "ORD503")]

    def test_unbounded_churn_emit_yields_ord511(self, tmp_path):
        # _churn invalidates remote egress templates one propagation
        # delay out — the same causality bound the TCP credits use.
        # Strip the bound and the record lands in the receiving shard's
        # current window (its past, once the shards diverge).
        copy = mutate(
            tmp_path,
            CLUSTER,
            "                    self.sim.now + propagation,\n"
            "                    RECORD_INVAL,",
            "                    self.sim.now,\n"
            "                    RECORD_INVAL,",
        )
        expected_line = line_of(copy, "self.sim.now,")
        assert findings_for(copy) == [(expected_line, "ORD511")]

    def test_insert_bypassing_ledger_yields_ord521(self, tmp_path):
        # FlowTable.access must only *reserve* the flow as slow-inflight
        # on a miss; populating right there serves the next packet from
        # cache while this one still rides the slow path.
        copy = mutate(
            tmp_path,
            FLOWCACHE,
            "        self.misses += 1\n"
            "        self._slow_inflight[key] =",
            "        self.misses += 1\n"
            "        self.insert(key)\n"
            "        self._slow_inflight[key] =",
        )
        expected_line = line_of(copy, "self.insert(key)")
        assert findings_for(copy) == [(expected_line, "ORD521")]

"""Mutation tests: the san rules must catch planted defects in the real code.

The acceptance bar for the family is not "runs clean on src" (a vacuous
analyzer does that too) — it is that seeding each canonical ownership
bug into a *copy of the real module* yields exactly the expected OWN
finding at the expected line:

* GRO holding a fragment *and* forwarding it (store-AND-forward in
  place of the legal store-XOR-forward) → OWN612;
* decode_skb serving a cached object instead of constructing fresh
  from wire primitives → OWN613;
* FlowTable.invalidate stripped of its counter bump → OWN621;
* the RECORD_INVAL handler invalidating the same flow twice → OWN622.

Copies are analyzed out-of-tree (module=None), where every rule applies
unconditionally — strict by default.
"""

from pathlib import Path

from repro.analysis.runner import FAMILIES, analyze

REPO_ROOT = Path(__file__).resolve().parents[2]
GRO = REPO_ROOT / "src" / "repro" / "kernel" / "gro.py"
CLUSTER = REPO_ROOT / "src" / "repro" / "overlay" / "cluster.py"
FLOWCACHE = REPO_ROOT / "src" / "repro" / "kernel" / "flowcache.py"

SAN_RULE_IDS = [rule.id for rule in FAMILIES["san"]]


def san_paths(paths):
    return analyze(paths, rule_ids=SAN_RULE_IDS)


def findings_for(path):
    result = san_paths([str(path)])
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

    def test_copies_are_clean(self, tmp_path):
        for source in (GRO, CLUSTER, FLOWCACHE):
            copy = tmp_path / source.name
            copy.write_text(source.read_text())
            result = san_paths([str(copy)])
            assert result.ok, f"{source.name}:\n{result.to_text()}"


class TestPlantedDefects:
    def test_gro_store_and_forward_yields_own612(self, tmp_path):
        # feed's legal shape holds the fragment XOR returns it; keep the
        # held reference and forward the skb anyway and the container
        # will replay a packet the pipeline already moved on.
        copy = mutate(
            tmp_path,
            GRO,
            "            self._held[key] = skb\n"
            "            skb.segs = 1\n"
            "            return None",
            "            self._held[key] = skb\n"
            "            skb.segs = 1\n"
            "            return skb",
        )
        expected_line = line_of(copy, "skb.segs = 1") + 1
        assert findings_for(copy) == [(expected_line, "OWN612")]

    def test_decode_skb_from_cache_yields_own613(self, tmp_path):
        copy = mutate(
            tmp_path,
            CLUSTER,
            "    if len(payload) != 10:",
            "    if payload in _DECODE_CACHE:\n"
            "        skb_cached = _DECODE_CACHE[payload]\n"
            "        return skb_cached\n"
            "    if len(payload) != 10:",
        )
        expected_line = line_of(copy, "return skb_cached")
        assert findings_for(copy) == [(expected_line, "OWN613")]

    def test_unaccounted_invalidate_yields_own621(self, tmp_path):
        copy = mutate(
            tmp_path,
            FLOWCACHE,
            "            self.invalidations += 1\n",
            "",
        )
        expected_line = line_of(copy, "self._entries.pop(key, None)")
        assert findings_for(copy) == [(expected_line, "OWN621")]

    def test_double_record_inval_yields_own622(self, tmp_path):
        # _sender_inval is the receiving end of RECORD_INVAL; tearing
        # the flow down twice is the churn hazard OWN622 exists for.
        copy = mutate(
            tmp_path,
            CLUSTER,
            "            flowcache.invalidate_flow(flow)",
            "            flowcache.invalidate_flow(flow)\n"
            "            flowcache.invalidate_flow(flow)",
        )
        expected_line = line_of(copy, "flowcache.invalidate_flow(flow)") + 1
        assert findings_for(copy) == [(expected_line, "OWN622")]

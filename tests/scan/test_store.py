"""The incremental store: keys, durability, torn lines, baselines."""

import json

from repro.fpir.frontend import lower_source
from repro.scan.store import (
    STORE_VERSION,
    Baseline,
    ResultStore,
    config_fingerprint,
    finding_key,
    program_digest,
)


def _record(digest="d1", analysis="boundary", fingerprint="f1", **extra):
    record = {
        "digest": digest,
        "analysis": analysis,
        "fingerprint": fingerprint,
        "target": "mod.py::f",
        "verdict": "not-found",
        "findings": [],
        "n_evals": 7,
        "elapsed_seconds": 0.1,
    }
    record.update(extra)
    return record


class TestProgramDigest:
    def test_stable_across_relowerings(self, tmp_path):
        source = "def f(x):\n    return x * 2.0\n"
        first = lower_source(source, "f")
        second = lower_source(source, "f")
        assert first is not second
        assert program_digest(first) == program_digest(second)

    def test_body_change_changes_digest(self):
        before = lower_source("def f(x):\n    return x * 2.0\n", "f")
        after = lower_source("def f(x):\n    return x * 3.0\n", "f")
        assert program_digest(before) != program_digest(after)


class TestConfigFingerprint:
    def test_every_knob_matters(self):
        base = dict(
            seed=0, niter=None, rounds=None, starts=None,
            backend=None, eval_mode=None, smoke=False,
        )
        reference = config_fingerprint(**base)
        assert config_fingerprint(**base) == reference
        for key, value in [
            ("seed", 1),
            ("niter", 10),
            ("rounds", 5),
            ("starts", 3),
            ("backend", "basinhopping"),
            ("eval_mode", "interpreter"),
            ("smoke", True),
        ]:
            changed = dict(base)
            changed[key] = value
            assert config_fingerprint(**changed) != reference, key


class TestResultStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("d1", "boundary", "f1") is None
        store.put(_record())
        hit = store.get("d1", "boundary", "f1")
        assert hit is not None and hit["n_evals"] == 7
        # A fresh instance reloads from disk.
        again = ResultStore(tmp_path)
        assert again.get("d1", "boundary", "f1")["target"] == "mod.py::f"
        assert len(again) == 1

    def test_key_is_three_dimensional(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_record())
        assert store.get("d2", "boundary", "f1") is None
        assert store.get("d1", "overflow", "f1") is None
        assert store.get("d1", "boundary", "f2") is None

    def test_last_record_wins_and_compact(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_record(n_evals=1))
        store.put(_record(n_evals=2))
        assert store.get("d1", "boundary", "f1")["n_evals"] == 2
        dropped = store.compact()
        assert dropped == 1
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.get("d1", "boundary", "f1")["n_evals"] == 2

    def test_torn_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_record())
        with store.path.open("a") as fh:
            fh.write('{"digest": "d2", "analysis": "bo')  # torn append
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1

    def test_other_versions_are_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        alien = _record(digest="d9")
        alien["version"] = STORE_VERSION + 1
        store.directory.mkdir(parents=True, exist_ok=True)
        with store.path.open("a") as fh:
            fh.write(json.dumps(alien) + "\n")
        reloaded = ResultStore(tmp_path)
        assert reloaded.get("d9", "boundary", "f1") is None


class TestAutoCompaction:
    def _count_lines(self, store):
        return sum(1 for _ in store.path.open())

    def test_stale_heavy_store_compacts_on_open(self, tmp_path):
        from repro.scan.store import AUTO_COMPACT_MIN_LINES

        store = ResultStore(tmp_path)
        # Re-put the same few keys until the file is mostly stale.
        for i in range(AUTO_COMPACT_MIN_LINES):
            store.put(_record(digest=f"d{i % 4}", n_evals=i))
        assert self._count_lines(store) == AUTO_COMPACT_MIN_LINES

        reopened = ResultStore(tmp_path)
        assert reopened.n_compacted == AUTO_COMPACT_MIN_LINES - 4
        assert self._count_lines(reopened) == 4
        # The surviving records are the last-written ones.
        for i in range(4):
            want = AUTO_COMPACT_MIN_LINES - 4 + i
            assert (
                reopened.get(f"d{i}", "boundary", "f1")["n_evals"] == want
            )

    def test_fresh_store_not_rewritten(self, tmp_path):
        from repro.scan.store import AUTO_COMPACT_MIN_LINES

        store = ResultStore(tmp_path)
        for i in range(AUTO_COMPACT_MIN_LINES):
            store.put(_record(digest=f"d{i}"))  # all distinct: 0 stale
        reopened = ResultStore(tmp_path)
        assert reopened.n_compacted == 0
        assert self._count_lines(reopened) == AUTO_COMPACT_MIN_LINES

    def test_small_store_never_auto_compacts(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(10):
            store.put(_record(n_evals=i))  # one key, 90% stale lines
        reopened = ResultStore(tmp_path)
        assert reopened.n_compacted == 0
        assert self._count_lines(reopened) == 10

    def test_opt_out(self, tmp_path):
        from repro.scan.store import AUTO_COMPACT_MIN_LINES

        store = ResultStore(tmp_path)
        for i in range(AUTO_COMPACT_MIN_LINES):
            store.put(_record(n_evals=i))
        reopened = ResultStore(tmp_path, auto_compact_ratio=None)
        assert reopened.n_compacted == 0
        assert self._count_lines(reopened) == AUTO_COMPACT_MIN_LINES


class TestBaseline:
    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path).keys) == 0

    def test_write_and_reload(self, tmp_path):
        key = finding_key("mod.py::f", "boundary", "boundary-condition", "c1")
        other = finding_key("mod.py::g", "overflow", "overflow", "x1")
        Baseline.write(tmp_path, [key, other, key])
        loaded = Baseline.load(tmp_path)
        assert key in loaded and other in loaded
        assert finding_key("mod.py::f", "boundary", "x", "y") not in loaded

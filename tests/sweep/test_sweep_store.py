"""Content-addressed result store: round-trip, atomicity, corruption."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.spec import get_scenario, run_scenario_replication, unit_hash, unit_key
from repro.sweep import ResultStore, StoreError


#: Arbitrary JSON, NaN and infinities included (``json.loads`` accepts them).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def unit():
    """One real (hash, key, result-dict) triple from a tiny scenario run."""
    from dataclasses import replace

    spec = get_scenario("fig7-smoke")
    spec = replace(spec, schedule=replace(spec.schedule, num_rounds=5))
    result = run_scenario_replication(spec, 0)
    return unit_hash(spec, 0), unit_key(spec, 0), result.to_dict()


class TestRoundTrip:
    def test_put_then_load_returns_the_result(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        assert store.load(key_hash) == result

    def test_objects_fan_out_by_hash_prefix(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        path = store.put(key_hash, key, result)
        assert path.parent.name == key_hash[:2]
        assert path.name == f"{key_hash}.json"
        assert (tmp_path / "store" / "store.json").is_file()

    def test_missing_entry_is_a_miss_not_an_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.load("ab" * 32) is None
        assert ("ab" * 32) not in store

    def test_contains_and_hashes(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        assert len(store) == 0
        store.put(key_hash, key, result)
        assert key_hash in store
        assert store.hashes() == [key_hash]

    def test_overwrite_is_idempotent(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        store.put(key_hash, key, result)
        assert len(store) == 1

    def test_no_temp_files_left_behind(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        leftovers = list((tmp_path / "store").rglob("*.tmp"))
        assert leftovers == []


class TestCorruption:
    def _stored(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        path = store.put(key_hash, key, result)
        return store, key_hash, path

    def test_truncated_entry_raises_naming_the_file(self, tmp_path, unit):
        store, key_hash, path = self._stored(tmp_path, unit)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(StoreError, match=r"invalid JSON"):
            store.load(key_hash)
        with pytest.raises(StoreError, match=str(path)):
            store.load(key_hash)

    def test_non_strict_load_reports_corruption_as_a_miss(self, tmp_path, unit):
        store, key_hash, path = self._stored(tmp_path, unit)
        path.write_text("{not json")
        assert store.load(key_hash, strict=False) is None

    def test_tampered_key_detected_by_rehashing(self, tmp_path, unit):
        store, key_hash, path = self._stored(tmp_path, unit)
        entry = json.loads(path.read_text())
        entry["key"]["replication"] = 7  # valid JSON, wrong content
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="tampered or misfiled"):
            store.load(key_hash)

    def test_invalid_result_envelope_detected(self, tmp_path, unit):
        store, key_hash, path = self._stored(tmp_path, unit)
        entry = json.loads(path.read_text())
        del entry["result"]["series"]
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="envelope is invalid"):
            store.load(key_hash)

    def test_wrong_schema_detected(self, tmp_path, unit):
        store, key_hash, path = self._stored(tmp_path, unit)
        entry = json.loads(path.read_text())
        entry["schema"] = "something-else/v9"
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="expected schema"):
            store.load(key_hash)

    def test_entries_iterator_skips_corrupt_objects(self, tmp_path, unit):
        store, key_hash, path = self._stored(tmp_path, unit)
        bogus = store.objects_dir / "ff" / ("ff" * 32 + ".json")
        bogus.parent.mkdir(parents=True, exist_ok=True)
        bogus.write_text("garbage")
        valid = dict(store.entries())
        assert set(valid) == {key_hash}
        with pytest.raises(StoreError):
            list(store.entries(strict=True))

    def test_malformed_hash_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError, match="malformed store key"):
            store.path_for("../escape")


def _rewrite(path, edit):
    """Apply ``edit`` to the stored entry dict and write it back (NaN allowed)."""
    entry = json.loads(path.read_text())
    edit(entry)
    path.write_text(json.dumps(entry))


#: Corruptions that each escaped ``load(strict=False)`` and ``audit()`` as a
#: raw exception before every store read went through the shared codec.
CORRUPTIONS = {
    "not-utf8": lambda path: path.write_bytes(b"\xff" + path.read_bytes()),
    "record-not-an-object": lambda path: _rewrite(
        path, lambda entry: entry["result"].update(records={"cell": 5})
    ),
    "nan-in-key": lambda path: _rewrite(
        path, lambda entry: entry["key"].update(replication=float("nan"))
    ),
}


@pytest.fixture(scope="module")
def heal_plan():
    from repro.spec import apply_overrides
    from repro.sweep import SweepPlan

    base = apply_overrides(
        get_scenario("fig7-smoke"),
        {"schedule.num_rounds": 5, "replication.replications": 1},
    )
    return SweepPlan.from_grid("heal", base, {"seed": [base.seed]})


class TestSelfHealing:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_object_is_a_miss_then_recomputed(self, tmp_path, heal_plan, corruption):
        from repro.sweep import run_sweep

        store = ResultStore(tmp_path / "store")
        first = run_sweep(heal_plan, store=store)
        (victim,) = store.hashes()
        CORRUPTIONS[corruption](store.path_for(victim))
        with pytest.raises(StoreError, match="is corrupt"):
            store.load(victim)
        assert store.load(victim, strict=False) is None
        assert dict(store.entries()) == {}
        again = run_sweep(heal_plan, store=store)
        assert (again.corrupt_units, again.computed_units) == (1, 1)
        recomputed, original = store.load(victim), first.outcomes[0].result
        assert recomputed["series"] == original.series
        assert recomputed["replication_series"] == original.replication_series

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_audit_reports_and_heal_deletes_the_corrupt_object(
        self, tmp_path, unit, corruption
    ):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        path = store.put(key_hash, key, result)
        CORRUPTIONS[corruption](path)
        report = store.audit()
        assert [issue.kind for issue in report.issues] == ["corrupt"]
        assert report.valid == 0
        assert store.audit(heal=True).healed
        assert not path.exists()
        assert store.audit().ok

    def test_non_utf8_marker_is_a_marker_issue(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        store.marker_path.write_bytes(b"\xff\xfe")
        report = store.audit()
        assert [issue.kind for issue in report.issues] == ["marker"]
        store.audit(heal=True)
        assert store.audit().ok


def _paths(data, prefix=()):
    """Every key path of a JSON document (list entries by index)."""
    items = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ()
    )
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data(), json_values)
def test_arbitrary_json_at_any_entry_path_loads_or_is_corrupt(tmp_path, unit, data, value):
    key_hash, key, result = unit
    store = ResultStore(tmp_path / "store")
    path = store.put(key_hash, key, result)
    entry = json.loads(path.read_text())
    where = data.draw(st.sampled_from([(), *_paths(entry)]))
    if where:
        holder = entry
        for part in where[:-1]:
            holder = holder[part]
        holder[where[-1]] = value
    else:
        entry = value
    path.write_text(json.dumps(entry))
    try:
        loaded = store.load(key_hash)
    except StoreError:
        assert store.load(key_hash, strict=False) is None
        assert [issue.kind for issue in store.audit().issues] == ["corrupt"]
    else:
        assert loaded == store.load(key_hash, strict=False)
        assert store.audit().ok


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.binary(max_size=64))
def test_arbitrary_bytes_as_an_object_are_corrupt(tmp_path, unit, raw):
    key_hash, key, result = unit
    store = ResultStore(tmp_path / "store")
    store.put(key_hash, key, result).write_bytes(raw)
    assert store.load(key_hash, strict=False) is None
    assert [issue.kind for issue in store.audit().issues] == ["corrupt"]


class TestStrayFiles:
    def test_non_hash_files_under_objects_are_ignored(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        stray = store.objects_dir / "ab" / "notes.json"
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_text("not an object")
        assert store.hashes() == [key_hash]
        assert dict(store.entries())  # does not raise on the stray file

    def test_misfiled_hex_name_is_not_listed(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        path = store.put(key_hash, key, result)
        misfiled_dir = store.objects_dir / "zz"
        misfiled_dir.mkdir(parents=True, exist_ok=True)
        (misfiled_dir / path.name).write_text(path.read_text())
        assert store.hashes() == [key_hash]


class TestEngineVersioning:
    def test_unit_hash_depends_on_the_engine_version(self, unit, monkeypatch):
        from dataclasses import replace

        from repro.spec import canon, get_scenario

        spec = get_scenario("fig7-smoke")
        spec = replace(spec, schedule=replace(spec.schedule, num_rounds=5))
        before = canon.unit_hash(spec, 0)
        monkeypatch.setattr(canon, "ENGINE_VERSION", canon.ENGINE_VERSION + 1)
        assert canon.unit_hash(spec, 0) != before


class TestAudit:
    def test_clean_store_audits_clean(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        report = store.audit()
        assert report.ok
        assert report.valid == 1
        assert report.checked == 1
        assert report.issues == []

    def test_missing_root_is_vacuously_clean(self, tmp_path):
        report = ResultStore(tmp_path / "never-created").audit()
        assert report.ok
        assert report.checked == 0

    def test_audit_finds_every_issue_kind(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        path = store.put(key_hash, key, result)
        path.write_text(path.read_text()[:40])  # corrupt: torn write
        (path.parent / "leftover.tmp").write_text("partial")  # orphan
        misfiled = store.objects_dir / "zz"
        misfiled.mkdir()
        (misfiled / path.name).write_text("{}")  # orphan: wrong fan-out dir
        store.marker_path.write_text("not json")  # broken marker
        report = store.audit()
        assert not report.ok
        assert len(report.corrupt) == 1
        assert len(report.orphans) == 2
        assert any(issue.kind == "marker" for issue in report.issues)

    def test_heal_prunes_and_rewrites_the_marker(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        path = store.put(key_hash, key, result)
        path.write_text("{")
        (path.parent / "junk.tmp").write_text("x")
        store.marker_path.unlink()
        healed = store.audit(heal=True)
        assert healed.healed
        assert all(issue.healed for issue in healed.issues)
        assert not path.exists()
        assert json.loads(store.marker_path.read_text())["schema"] == (
            "repro.sweep-store/v1"
        )
        assert store.audit().ok

    def test_report_dict_is_json_ready(self, tmp_path, unit):
        key_hash, key, result = unit
        store = ResultStore(tmp_path / "store")
        store.put(key_hash, key, result)
        payload = store.audit().to_dict()
        assert payload["schema"] == "repro.store-audit/v1"
        json.dumps(payload)


class TestConcurrentWriters:
    """Multiprocess stress: many writers, one key, readers never see torn data."""

    WRITER = """
import json, sys
data = json.load(open(sys.argv[1]))
from repro.sweep import ResultStore
store = ResultStore(sys.argv[2])
for _ in range(int(sys.argv[3])):
    store.put(data["hash"], data["key"], data["result"])
"""

    READER = """
import json, sys, time
data = json.load(open(sys.argv[1]))
from repro.sweep import ResultStore
store = ResultStore(sys.argv[2])
# Poll until the first writer's entry lands, so the strict reads below
# overlap the live writes however the processes are scheduled.
deadline = time.monotonic() + 60.0
while store.load(data["hash"], strict=True) is None:  # raises on a torn entry
    if time.monotonic() > deadline:
        sys.exit("no entry appeared within 60 s")
    time.sleep(0.001)
hits = 0
for _ in range(int(sys.argv[3])):
    entry = store.load(data["hash"], strict=True)  # raises on any torn entry
    if entry is not None:
        assert entry == data["result"], "reader saw a mismatched entry"
        hits += 1
print(hits)
"""

    def test_parallel_writers_and_strict_readers(self, tmp_path, unit):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        key_hash, key, result = unit
        root = tmp_path / "store"
        payload = tmp_path / "unit.json"
        payload.write_text(
            json.dumps({"hash": key_hash, "key": key, "result": result})
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])

        def spawn(script, iterations):
            return subprocess.Popen(
                [sys.executable, "-c", script, str(payload), str(root), iterations],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )

        # Writers race on the marker, the fan-out dir, and the object file
        # itself while strict readers poll the same key throughout.
        writers = [spawn(self.WRITER, "50") for _ in range(4)]
        readers = [spawn(self.READER, "300") for _ in range(2)]
        failures = []
        hits = 0
        for proc in writers + readers:
            out, err = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failures.append(err)
            elif proc in readers:
                hits += int(out)
        assert not failures, "\n".join(failures)
        assert hits > 0  # the readers did overlap live writes
        # Post-conditions: exactly one valid object, no temp debris, clean audit.
        store = ResultStore(root)
        assert store.hashes() == [key_hash]
        assert store.load(key_hash, strict=True) == result
        assert list(root.rglob("*.tmp")) == []
        report = store.audit()
        assert report.ok, [issue.detail for issue in report.issues]
        assert json.loads(store.marker_path.read_text())["schema"] == (
            "repro.sweep-store/v1"
        )

    def test_sigkilled_writers_leave_only_healable_debris(self, tmp_path, unit):
        """A writer killed mid-``put`` (as soon as its temp file appears)
        leaves at most that temp file: the object it was replacing still
        loads strictly, and ``--heal`` cleans up."""
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time

        import repro

        key_hash, key, result = unit
        # A long series widens the window between the temp file and its rename.
        result = {**result, "series": {**result["series"], "pad": [0.5] * 200_000}}
        root = tmp_path / "store"
        payload = tmp_path / "unit.json"
        payload.write_text(json.dumps({"hash": key_hash, "key": key, "result": result}))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        store = ResultStore(root)
        fan_out = store.path_for(key_hash).parent
        for _ in range(3):
            writer = subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(payload), str(root), "100000"],
                env=env,
            )
            deadline = time.monotonic() + 60.0
            while key_hash not in store or not any(
                name.endswith(".tmp") for name in os.listdir(fan_out)
            ):
                assert writer.poll() is None and time.monotonic() < deadline
            writer.send_signal(signal.SIGKILL)
            writer.wait(timeout=60)
            assert store.load(key_hash, strict=True) == result
            report = store.audit()
            assert report.valid == 1
            assert {issue.kind for issue in report.issues} <= {"orphan"}
            store.audit(heal=True)
            assert store.audit().ok

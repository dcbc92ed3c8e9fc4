"""The directory result store: URI resolution, format compatibility
with the historical ``ResultCache`` layout, corrupt-entry quarantine,
campaign checkpoints, the done-key frontier, and job leases.
"""

import json
import time

import pytest

from repro.analysis import (
    SweepJob,
    SweepRunner,
    WorkloadSpec,
    sweep_job_from_dict,
    sweep_job_to_dict,
)
from repro.analysis.sweep import PayloadRequest, parse_shard
from repro.core import SimulationConfig
from repro.store import (
    CampaignCheckpoint,
    DirectoryStore,
    campaign_id_for,
    open_store,
    parse_store_uri,
    resolve_store_uri,
    sweep_result_key,
)
from repro.store.base import STORE_ENV, lease_is_stale

#: engine-produced fields that are deterministic across runs
METRIC_FIELDS = (
    "makespan",
    "mean_response",
    "inconsistency",
    "max_response",
    "hit_rate",
    "total_requests",
    "hits",
    "fetches",
    "evictions",
)


@pytest.fixture(params=["dir"])
def store(tmp_path):
    return DirectoryStore(tmp_path / "results")


def demo_jobs():
    jobs = []
    for arb in ("fifo", "priority"):
        jobs.append(
            SweepJob(
                WorkloadSpec.make(
                    "adversarial_cycle", threads=2, pages=8, repeats=2
                ),
                SimulationConfig(hbm_slots=16, arbitration=arb),
                tag=f"job-{arb}",
            )
        )
    return jobs


def records_by_tag(records):
    return {r.job.tag: r for r in records}


def assert_same_metrics(records_a, records_b):
    by_tag = records_by_tag(records_b)
    assert set(records_by_tag(records_a)) == set(by_tag)
    for record in records_a:
        twin = by_tag[record.job.tag]
        for name in METRIC_FIELDS:
            assert getattr(record, name) == getattr(twin, name), name


class TestUriResolution:
    def test_parse_schemes(self, tmp_path):
        assert parse_store_uri("dir:/a/b") == ("dir", "/a/b")
        assert parse_store_uri("/bare/path") == ("dir", "/bare/path")
        # a single-letter "scheme" is a Windows drive, not a scheme
        assert parse_store_uri("C:\\x\\y") == ("dir", "C:\\x\\y")
        with pytest.raises(ValueError):
            parse_store_uri("redis:whatever")
        # the directory store is the only backend
        with pytest.raises(ValueError, match="expected dir:PATH$"):
            parse_store_uri("sqlite:/a/b.db")

    def test_open_store_dispatch(self, tmp_path):
        d = open_store(f"dir:{tmp_path / 'r'}")
        assert isinstance(d, DirectoryStore)
        assert open_store(d) is d  # instance passthrough
        bare = open_store(tmp_path / "plain")
        assert isinstance(bare, DirectoryStore)
        with pytest.raises(ValueError, match="unknown result-store scheme"):
            open_store(f"sqlite:{tmp_path / 'r.db'}")

    def test_repro_store_env_resolution(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert resolve_store_uri() is None
        monkeypatch.setenv(STORE_ENV, "dir:/from/env")
        assert resolve_store_uri() == "dir:/from/env"

    def test_describe_is_canonical(self, tmp_path):
        assert DirectoryStore(tmp_path / "r").describe() == f"dir:{tmp_path / 'r'}"
        assert open_store(tmp_path / "r").describe() == f"dir:{tmp_path / 'r'}"


class TestEntryContract:
    def test_put_get_round_trip(self, store):
        payload = {"makespan": 12, "hit_rate": 0.5}
        store.put("a" * 32, payload)
        assert store.get("a" * 32) == payload
        assert store.get("b" * 32) is None
        assert len(store) == 1

    def test_get_many_returns_only_hits(self, store):
        store.put("a" * 32, {"makespan": 1})
        store.put("b" * 32, {"makespan": 2})
        found = store.get_many(["a" * 32, "b" * 32, "c" * 32])
        assert set(found) == {"a" * 32, "b" * 32}
        assert found["b" * 32]["makespan"] == 2

    def test_put_refuses_failed_payloads(self, store):
        with pytest.raises(ValueError):
            store.put("a" * 32, {"makespan": 0, "error": {"kind": "exception"}})

    def test_clear_counts_and_empties(self, store):
        store.put("a" * 32, {"makespan": 1})
        store.put("b" * 32, {"makespan": 2})
        assert store.clear() == 2
        assert len(store) == 0
        assert store.get("a" * 32) is None

    def test_stats_surface(self, store):
        store.put("a" * 32, {"makespan": 1})
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["corrupt"] == 0
        assert stats["backend"] == "dir"


class TestQuarantine:
    def test_dir_corrupt_entry_renamed_and_counted(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.put("a" * 32, {"makespan": 1})
        bad = tmp_path / ("b" * 32 + ".json")
        bad.write_text("{truncated", encoding="utf-8")
        assert store.get("b" * 32) is None
        assert not bad.exists()
        assert bad.with_suffix(".corrupt").exists()
        stats = store.stats()
        assert stats["corrupt"] == 1
        assert stats["entries"] == 1  # the good entry is untouched
        # a warm re-probe misses cleanly instead of re-parsing
        assert store.get("b" * 32) is None


class TestLegacyCompat:
    """The directory store keeps the historical result-cache layout:
    the same ``<key>.json`` files and content-addressed keys, so every
    cache written before the store abstraction existed stays warm."""

    def test_key_format_unchanged(self):
        spec = WorkloadSpec.make("adversarial_cycle", threads=2, pages=8)
        config = SimulationConfig(hbm_slots=16)
        key = sweep_result_key(spec, config)
        assert len(key) == 32
        assert key == sweep_result_key(spec, config)  # deterministic
        other = SimulationConfig(hbm_slots=32)
        assert key != sweep_result_key(spec, other)
        # an empty payload request leaves the slim key untouched
        assert key == sweep_result_key(spec, config, PayloadRequest())

    def test_legacy_layout_readable_through_uri(self, tmp_path):
        legacy = DirectoryStore(tmp_path / "results")
        legacy.put("a" * 32, {"makespan": 7})
        reopened = open_store(f"dir:{tmp_path / 'results'}")
        assert reopened.get("a" * 32) == {"makespan": 7}
        raw = json.loads(
            (tmp_path / "results" / ("a" * 32 + ".json")).read_text()
        )
        assert raw == {"makespan": 7}  # plain JSON file per entry


class TestCheckpoints:
    def checkpoint(self):
        jobs = tuple(
            {**sweep_job_to_dict(job), "key": f"{i:032d}"}
            for i, job in enumerate(demo_jobs())
        )
        return CampaignCheckpoint(
            campaign_id="camp-abc", label="camp", jobs=jobs,
            meta={"experiment_id": "fig9"},
        )

    def test_round_trip(self, store):
        ckpt = self.checkpoint()
        store.save_checkpoint(ckpt)
        loaded = store.load_checkpoint("camp-abc")
        assert loaded is not None
        assert loaded.campaign_id == "camp-abc"
        assert loaded.label == "camp"
        assert loaded.meta == {"experiment_id": "fig9"}
        assert loaded.job_keys == ckpt.job_keys
        rebuilt = [sweep_job_from_dict(j) for j in loaded.jobs]
        for original, twin in zip(demo_jobs(), rebuilt):
            assert original.tag == twin.tag
            assert sweep_result_key(
                original.workload, original.config, original.payload
            ) == sweep_result_key(twin.workload, twin.config, twin.payload)

    def test_write_once(self, store):
        ckpt = self.checkpoint()
        store.save_checkpoint(ckpt)
        store.save_checkpoint(
            CampaignCheckpoint(campaign_id="camp-abc", label="usurper")
        )
        assert store.load_checkpoint("camp-abc").label == "camp"

    def test_list_and_missing(self, store):
        assert store.load_checkpoint("nope") is None
        assert store.list_campaigns() == []
        store.save_checkpoint(self.checkpoint())
        assert store.list_campaigns() == ["camp-abc"]

    def test_frontier_marks_are_idempotent(self, store):
        store.mark_done("camp-abc", "a" * 32)
        store.mark_done("camp-abc", "a" * 32)
        store.mark_done("camp-abc", "b" * 32)
        assert store.done_keys("camp-abc") == {"a" * 32, "b" * 32}
        assert store.done_keys("other") == set()

    def test_dir_frontier_tolerates_torn_final_line(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.mark_done("camp", "a" * 32)
        log = tmp_path / "campaigns" / "camp" / "done.log"
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("deadbeef")  # parent died mid-append
        assert store.done_keys("camp") == {"a" * 32}


class TestLeases:
    def test_claim_reclaim_release(self, store):
        assert store.claim("camp", "a" * 32)
        assert store.claim("camp", "a" * 32)  # our own lease: re-claim ok
        store.release("camp", "a" * 32)
        assert store.claim("camp", "a" * 32)

    def test_done_keys_cannot_be_claimed(self, store):
        store.mark_done("camp", "a" * 32)
        assert not store.claim("camp", "a" * 32)

    def test_dir_foreign_live_lease_blocks(self, tmp_path):
        store = DirectoryStore(tmp_path)
        lease = tmp_path / "campaigns" / "camp" / "leases" / ("a" * 32 + ".json")
        lease.parent.mkdir(parents=True)
        lease.write_text(
            json.dumps(
                {"host": "elsewhere", "pid": 1, "expires": time.time() + 600}
            )
        )
        assert not store.claim("camp", "a" * 32)

    def test_dir_stale_lease_is_stolen(self, tmp_path):
        store = DirectoryStore(tmp_path)
        lease = tmp_path / "campaigns" / "camp" / "leases" / ("a" * 32 + ".json")
        lease.parent.mkdir(parents=True)
        lease.write_text(
            json.dumps(
                {"host": "elsewhere", "pid": 1, "expires": time.time() - 1}
            )
        )
        assert store.claim("camp", "a" * 32)

    def test_lease_staleness_rules(self):
        assert lease_is_stale({})  # no expiry at all
        assert lease_is_stale({"expires": time.time() - 1})
        assert not lease_is_stale(
            {"host": "definitely-elsewhere", "pid": 1, "expires": time.time() + 60}
        )


class TestShardParsing:
    def test_accepts_strings_and_pairs(self):
        assert parse_shard(None) is None
        assert parse_shard("") is None
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("1/2") == (1, 2)
        assert parse_shard((1, 3)) == (1, 3)
        assert parse_shard("0/1") == (0, 1)

    def test_rejects_bad_shapes(self):
        for bad in ("2/2", "-1/2", "0/0", "x/y", "1"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestCampaignIds:
    def test_deterministic_and_label_prefixed(self):
        a = campaign_id_for("Fig 2a", ["k1", "k2"])
        assert a == campaign_id_for("Fig 2a", ["k2", "k1"])  # order-free
        assert a.startswith("Fig-2a-")
        assert a != campaign_id_for("Fig 2a", ["k1", "k3"])
        assert a != campaign_id_for("Fig 2b", ["k1", "k2"])


class TestRunnerAgainstBackends:
    def test_store_uri_accepted_directly(self, tmp_path):
        jobs = demo_jobs()
        runner = SweepRunner(processes=1, store=f"dir:{tmp_path / 'u'}")
        runner.run(jobs, label="via-uri")
        reopened = DirectoryStore(tmp_path / "u")
        assert len(reopened) == len(jobs)

    def test_two_shards_cover_the_campaign(self, tmp_path):
        jobs = demo_jobs()
        baseline = SweepRunner(
            processes=1, cache_dir=tmp_path / "dircache"
        ).run(jobs)
        store_uri = f"dir:{tmp_path / 'shared'}"
        merged = []
        for shard in ("0/2", "1/2"):
            runner = SweepRunner(processes=1, store=store_uri, shard=shard)
            merged.extend(runner.run(jobs, label="sharded"))
            assert runner.last_campaign.shard == shard
        assert_same_metrics(merged, baseline)
        # the full unsharded pass over the shared store is pure replay
        final = SweepRunner(processes=1, store=store_uri)
        records = final.run(jobs, label="sharded")
        assert final.last_campaign.cache_hits == len(jobs)
        assert_same_metrics(records, baseline)

    def test_shard_requires_a_store(self):
        runner = SweepRunner(processes=1, result_cache=False, shard="0/2")
        with pytest.raises(ValueError):
            runner.run(demo_jobs())

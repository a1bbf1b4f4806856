"""The unified pipeline API: fingerprints, the artifact store, caching.

Three layers under test:

* :mod:`repro.pipeline.fingerprint` — deterministic cache tokens and
  SHA-256 fingerprints (stable across processes, loud on unstable
  inputs);
* :mod:`repro.pipeline.store` / :mod:`repro.pipeline.api` — the
  content-addressed artifact store and the hit/miss/bypass accounting
  of :class:`Pipeline.run`;
* the harness integrations — a warm ``run_validation`` rerun loads
  every trial from the cache, recomputes nothing, and renders the very
  same bytes as the cold (and the uncached) run.
"""

import hashlib
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import (
    ALL_STAGES,
    ArtifactStore,
    Canonical,
    CollectStage,
    CompensationStage,
    DistillStage,
    EthernetTrialStage,
    LiveTrialStage,
    ModulatedTrialStage,
    Pipeline,
    as_pipeline,
    cache_token,
    canonical_json,
    codec,
    digest,
)
from repro.scenarios import (
    ALL_SCENARIOS,
    ChatterboxScenario,
    WeanScenario,
    scenario_by_name,
)
from repro.validation import FtpRunner, run_validation
from repro.validation.parallel import (
    TrialExecutor,
    TrialSpec,
    spec_fingerprint,
)


def wean():
    return scenario_by_name("wean")


class _Tokened:
    """An object whose cache_token() is ``token``, rendered once when
    ``canonical``."""

    def __init__(self, token, canonical):
        self.token, self.canonical = token, canonical

    def cache_token(self):
        return Canonical(self.token) if self.canonical else self.token


# ======================================================================
# cache_token / digest
# ======================================================================
class TestCacheToken:
    def test_plain_data_passes_through(self):
        assert cache_token(None) is None
        assert cache_token(True) is True
        assert cache_token(3) == 3
        assert cache_token(2.5) == 2.5
        assert cache_token("hi") == "hi"

    def test_containers_recurse(self):
        assert cache_token([1, (2, 3)]) == [1, [2, 3]]
        assert cache_token({"a": {"b": 1}}) == {"a": {"b": 1}}

    def test_cache_token_method_wins(self):
        class Thing:
            def cache_token(self):
                return {"thing": 7}

        assert cache_token(Thing()) == {"thing": 7}

    def test_scenario_and_runner_have_tokens(self):
        token = cache_token(wean())
        assert token["spec"]["name"] == "wean"
        token = cache_token(FtpRunner(nbytes=1000, direction="send"))
        assert token["nbytes"] == 1000

    def test_unstable_object_is_loud(self):
        with pytest.raises(TypeError, match="no stable cache token"):
            cache_token(object())
        with pytest.raises(TypeError):
            cache_token({"inner": object()})

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_digest_is_sha256_hex(self):
        fp = digest({"x": 1})
        assert len(fp) == 64
        assert fp == digest({"x": 1})
        assert fp != digest({"x": 2})

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=6),
        lambda kids: (
            st.lists(kids, max_size=3)
            | st.dictionaries(st.text(max_size=3) | st.integers(0, 3)
                              | st.booleans(), kids, max_size=4)
            | st.builds(_Tokened, kids, st.booleans())),
        max_leaves=20))
    def test_digest_splices_canonical_tokens_exactly(self, token):
        """However a Canonical sits in a token, the digest is the
        SHA-256 of the token's canonical JSON rendered in one piece."""
        whole = canonical_json(cache_token(token)).encode("utf-8")
        assert digest(token) == hashlib.sha256(whole).hexdigest()

    def test_scenario_token_is_memoized_per_object_not_pickled(self):
        scenario = wean()
        fp = digest(scenario)
        memo = scenario.cache_token()
        assert type(memo) is Canonical and scenario.cache_token() is memo
        clone = pickle.loads(pickle.dumps(scenario))
        assert "_token_memo" not in vars(clone)
        assert digest(clone) == fp


class TestStageFingerprints:
    def test_deterministic_across_instances(self):
        a = CollectStage(wean(), seed=0, trial=0)
        b = CollectStage(wean(), seed=0, trial=0)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1}, {"trial": 1}, {"duration": 60.0},
    ])
    def test_input_changes_change_fingerprint(self, kwargs):
        base = CollectStage(wean(), seed=0, trial=0)
        changed = CollectStage(wean(), **{"seed": 0, "trial": 0, **kwargs})
        assert base.fingerprint() != changed.fingerprint()

    def test_scenario_change_changes_fingerprint(self):
        assert (CollectStage(wean(), 0, 0).fingerprint()
                != CollectStage(scenario_by_name("porter"), 0,
                                0).fingerprint())

    def test_downstream_chains_upstream(self):
        collect0 = CollectStage(wean(), seed=0, trial=0)
        collect1 = CollectStage(wean(), seed=1, trial=0)
        assert (DistillStage(collect0).fingerprint()
                != DistillStage(collect1).fingerprint())
        runner = FtpRunner(nbytes=1000)
        assert (ModulatedTrialStage(DistillStage(collect0), runner,
                                    0, 0).fingerprint()
                != ModulatedTrialStage(DistillStage(collect1), runner,
                                       0, 0).fingerprint())

    def test_version_is_part_of_the_key(self):
        stage = CollectStage(wean(), seed=0, trial=0)
        fp = stage.fingerprint()

        class Collect2(CollectStage):
            version = 2

        assert Collect2(wean(), seed=0, trial=0).fingerprint() != fp

    def test_all_stage_names_distinct(self):
        names = [cls.stage_name for cls in ALL_STAGES]
        assert len(set(names)) == len(names)

    def test_fingerprints_are_pinned(self):
        """Caches written before a change to the fingerprint code stay
        warm only while these literals hold."""
        collect = CollectStage(WeanScenario(), 0, 0)
        distill = DistillStage(collect, label="wean-0")
        runner = FtpRunner(2 * 1024 * 1024, "recv")
        got = {
            "collect": collect.fingerprint(),
            "distill": distill.fingerprint(),
            "live": LiveTrialStage(ChatterboxScenario(), runner, 0,
                                   1).fingerprint(),
            "modulated": ModulatedTrialStage(distill, runner, 0, 0,
                                             compensation=0.25
                                             ).fingerprint(),
            "ethernet": EthernetTrialStage(runner, 0, 2).fingerprint(),
            "compensation": CompensationStage().fingerprint(),
        }
        assert got == {
            "collect": "1e66dbf8bdb5973aacd89b73d8cc8da3"
                       "a34f04bc95ad9d0b4b89e8249355f00a",
            "distill": "a172379deb9b0e6279ad12a8462daaee"
                       "de910d3d38bf6864bc8993222ea23589",
            "live": "b3d4dcff03c905c89ec5798f47e6dc7b"
                    "0c8be6c1ff6ae0f0840aaeb0ebcb6741",
            "modulated": "f5095f4e4c90cbcadbd50f1558f8b0d5"
                         "325b46af616539c50f9aa934386ae070",
            "ethernet": "425a6294f339b4291c3277f4a033fd5a"
                        "c2ebac86cd84ed8c67887ab69302d3c5",
            "compensation": "e27b92e12e1847c105a951b3bcbfdfa2"
                            "b8f1f62d4b85efa7d67b5b2c207474fc",
        }

    def test_distill_memo_follows_the_format_version(self, monkeypatch):
        from repro.pipeline import stages

        stage = DistillStage(CollectStage(wean(), seed=0, trial=0))
        now = stage.fingerprint()
        monkeypatch.setattr(stages, "CACHE_FORMAT_VERSION", 1)
        assert stage.fingerprint() != now
        assert stage.fingerprint() == DistillStage(
            CollectStage(wean(), seed=0, trial=0)).fingerprint()


# ======================================================================
# ArtifactStore
# ======================================================================
@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return ArtifactStore()
    return ArtifactStore(tmp_path / "cache")


class TestArtifactStore:
    def test_round_trip(self, store):
        fp = digest("x")
        assert not store.contains(fp)
        assert store.get(fp) == (False, None)
        store.put(fp, {"value": [1, 2, 3]})
        assert store.contains(fp)
        found, value = store.get(fp)
        assert found and value == {"value": [1, 2, 3]}
        assert list(store.fingerprints()) == [fp]
        assert len(store) == 1

    def test_values_are_fresh_copies(self, store):
        fp = digest("y")
        original = {"items": [1, 2]}
        store.put(fp, original)
        original["items"].append(3)          # caller mutates its copy
        _, first = store.get(fp)
        first["items"].append(99)            # ... and what it got back
        _, second = store.get(fp)
        assert second == {"items": [1, 2]}

    def test_delete(self, store):
        fp = digest("z")
        store.put(fp, 1)
        store.delete(fp)
        assert not store.contains(fp)
        store.delete(fp)                     # idempotent

    def test_unpicklable_value_is_loud(self, store):
        with pytest.raises(Exception):
            store.put(digest("bad"), lambda: None)


class TestDiskStore:
    def test_corrupt_artifact_is_a_miss_and_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = digest("c")
        store.put(fp, 42, meta={"stage": "test"})
        path = store._object_path(fp)
        path.write_bytes(b"not a pickle")
        assert store.get(fp) == (False, None)
        assert not path.exists()             # dropped, not left to rot

    def test_meta_sidecar(self, tmp_path):
        import json

        store = ArtifactStore(tmp_path)
        fp = digest("m")
        store.put(fp, "artifact", meta={"stage": "collect", "version": 1})
        doc = json.loads(store._meta_path(fp).read_text())
        assert doc["stage"] == "collect"
        assert doc["fingerprint"] == fp
        assert doc["bytes"] > 0

    def test_persists_across_instances(self, tmp_path):
        fp = digest("p")
        ArtifactStore(tmp_path).put(fp, [1, 2])
        assert ArtifactStore(tmp_path).get(fp) == (True, [1, 2])

    def test_object_layout_is_stable(self, tmp_path):
        """``objects/<fp[:2]>/<fp>.rba`` plus its ``.json`` sidecar: a
        cache written by an earlier checkout must keep reading back."""
        store = ArtifactStore(tmp_path)
        fp = digest("layout")
        store.put(fp, [3], meta={"stage": "test"})
        where = tmp_path / "objects" / fp[:2]
        assert sorted(p.name for p in where.iterdir()) == [f"{fp}.json",
                                                           f"{fp}.rba"]
        assert store._object_path(fp) == where / f"{fp}.rba"
        assert store.contains(fp) and not store.contains(digest("other"))
        assert list(store.fingerprints()) == [fp]
        store.delete(fp)
        assert list(where.iterdir()) == []

    def test_digest_mismatch_is_a_miss_and_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fp = digest("d")
        store.put(fp, "value")
        blob = store.raw_get(fp)[1]
        assert store.get(fp, digest=codec.content_digest(blob)) == (
            True, "value")
        assert store.get(fp, digest="0" * 64) == (False, None)
        assert not store.contains(fp)


# ======================================================================
# Pipeline accounting
# ======================================================================
class CountingStage(CompensationStage):
    """A cheap stage that counts its compute() calls."""

    calls = 0

    def compute(self, pipeline, world_out=None):
        type(self).calls += 1
        return {"value": self.seed}


class TestPipeline:
    def test_miss_then_hit(self):
        CountingStage.calls = 0
        pipeline = Pipeline()
        stage = CountingStage(seed=5)
        assert pipeline.run(stage) == {"value": 5}
        assert pipeline.run(stage) == {"value": 5}
        assert CountingStage.calls == 1
        assert pipeline.misses == 1 and pipeline.hits == 1

    def test_world_out_bypasses_lookup_but_still_stores(self):
        CountingStage.calls = 0
        pipeline = Pipeline()
        stage = CountingStage(seed=6)
        pipeline.run(stage, world_out={})
        pipeline.run(stage, world_out={})    # live state: computes again
        assert CountingStage.calls == 2
        assert pipeline.summary()["bypassed"] == 2
        # ... but the artifact was stored, so a plain run now hits.
        assert pipeline.run(stage) == {"value": 6}
        assert CountingStage.calls == 2
        assert pipeline.hits == 1

    def test_summary_window_and_render(self):
        pipeline = Pipeline()
        pipeline.run(CountingStage(seed=7))
        assert "cold" in pipeline.render_summary()
        mark = len(pipeline.executions)
        pipeline.run(CountingStage(seed=7))
        warm = pipeline.summary(since=mark)
        assert warm == {"hits": 1, "misses": 0, "bypassed": 0,
                        "stages": warm["stages"]}
        assert "(warm)" in pipeline.render_summary(since=mark)

    def test_as_pipeline_coercions(self, tmp_path):
        assert as_pipeline(None) is None
        pipeline = Pipeline()
        assert as_pipeline(pipeline) is pipeline
        assert as_pipeline(tmp_path / "c").store.root == tmp_path / "c"
        store = ArtifactStore()
        assert as_pipeline(store).store is store


# ======================================================================
# Harness integration: warm reruns recompute nothing
# ======================================================================
RUNNER = FtpRunner(nbytes=100_000, direction="send")


class TestValidationCaching:
    def test_warm_rerun_is_hits_only_faster_and_byte_identical(
            self, tmp_path):
        cache_dir = tmp_path / "cache"
        started = time.perf_counter()
        cold = run_validation(wean(), RUNNER, seed=0, trials=1,
                              workers=1, cache=cache_dir)
        cold_s = time.perf_counter() - started
        assert cold.cache_hits == 0 and cold.cache_misses > 0

        started = time.perf_counter()
        warm = run_validation(wean(), RUNNER, seed=0, trials=1,
                              workers=1, cache=cache_dir)
        warm_s = time.perf_counter() - started
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert warm_s * 5 < cold_s, \
            f"warm rerun {warm_s:.2f}s not 5x faster than {cold_s:.2f}s"

        uncached = run_validation(wean(), RUNNER, seed=0, trials=1,
                                  workers=1)
        assert uncached.cache_hits == 0 and uncached.cache_misses == 0
        assert warm.render() == cold.render() == uncached.render()

    def test_changed_seed_invalidates(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_validation(wean(), RUNNER, seed=0, trials=1, workers=1,
                       cache=cache_dir)
        other = run_validation(wean(), RUNNER, seed=1, trials=1,
                               workers=1, cache=cache_dir)
        assert other.cache_misses > 0

    def test_spec_fingerprint_matches_stage_keyspace(self):
        """Sweep trials and pipeline stages share cached artifacts."""
        spec = TrialSpec(kind="live", seed=0, trial=0, scenario=wean(),
                         runner=RUNNER)
        stage = LiveTrialStage(wean(), RUNNER, 0, 0)
        assert spec_fingerprint(spec) == stage.fingerprint()

    def test_distill_spec_fingerprint_matches_its_stage(self):
        spec = TrialSpec(kind="distill", seed=0, trial=1, scenario=wean(),
                         name="wean-1")
        stage = DistillStage(CollectStage(wean(), 0, 1), label="wean-1")
        assert spec_fingerprint(spec) == stage.fingerprint()

    def test_spec_fingerprint_none_on_unstable_input(self):
        class Opaque:
            name = "opaque"

        spec = TrialSpec(kind="live", seed=0, trial=0, scenario=Opaque(),
                         runner=RUNNER)
        assert spec_fingerprint(spec) is None

    def test_serial_executor_map_uses_the_cache(self):
        pipeline = Pipeline()
        from dataclasses import replace

        spec = TrialSpec(kind="ethernet", seed=0, trial=0, runner=RUNNER)
        spec = replace(spec, fingerprint=spec_fingerprint(spec))
        with TrialExecutor(workers=1, pipeline=pipeline) as exe:
            first = exe.map([spec])
            second = exe.map([spec])
        assert first == second
        assert pipeline.misses == 1 and pipeline.hits == 1


class TestSweepFingerprintWork:
    def test_each_scenario_token_is_built_once_per_sweep(self,
                                                         monkeypatch):
        """A sweep renders each scenario object's token once, however
        many trials fingerprint it — cold, and warm on fresh objects."""
        from repro.scenarios import spec as spec_module

        built = []
        real = spec_module.spec_to_dict

        def counting(spec):
            built.append(spec.name)
            return real(spec)

        monkeypatch.setattr(spec_module, "spec_to_dict", counting)
        runner = FtpRunner(nbytes=20_000, direction="recv")
        pipeline = Pipeline()
        for warm in (False, True):
            built.clear()
            sweep = run_validation(ALL_SCENARIOS, runner, seed=0,
                                   trials=1, workers=1, cache=pipeline)
            assert sorted(built) == sorted(cls.spec.name
                                           for cls in ALL_SCENARIOS)
            assert (sweep.cache_misses == 0) == warm


class TestCheckReportCaching:
    def test_warm_check_serves_the_stored_report(self, tmp_path):
        from repro.check import check_scenario

        cache = Pipeline(tmp_path / "cache")
        cold = check_scenario("wean", ftp_bytes=60_000, cache=cache)
        assert cold.ok
        mark = len(cache.executions)
        warm = check_scenario("wean", ftp_bytes=60_000, cache=cache)
        stats = cache.summary(since=mark)
        assert stats == {"hits": 1, "misses": 0, "bypassed": 0,
                         "stages": stats["stages"]}
        assert warm.render() == cold.render()
        # A different transfer size is a different report.
        other = check_scenario("wean", ftp_bytes=61_000, cache=cache)
        assert other.render() != ""  # recomputed, no exception

    def test_violations_pickle_round_trip(self):
        from repro.check.invariants import InvariantViolation

        violation = InvariantViolation(
            "monitor", "invariant", "message", trace=7, k=1)
        clone = pickle.loads(pickle.dumps(violation))
        assert clone.monitor == "monitor"
        assert clone.trace == 7
        assert clone.details == {"k": 1}
        assert str(clone) == str(violation)

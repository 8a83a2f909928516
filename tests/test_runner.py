"""Tests for repro.experiments.runner: config hashing and result cache."""

import json

import pytest

from repro.experiments import runner
from repro.experiments.design_space import evaluate_point


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert (runner.config_hash({"a": 1, "b": (2, 3)})
                == runner.config_hash({"b": (2, 3), "a": 1}))

    def test_distinguishes_values(self):
        assert (runner.config_hash({"a": 1})
                != runner.config_hash({"a": 2}))

    def test_handles_dataclasses_and_enums(self):
        from repro.arch.engine import ArrayConfig
        from repro.training import Algorithm

        first = runner.config_hash(
            {"array": ArrayConfig(), "algo": Algorithm.DP_SGD_R})
        second = runner.config_hash(
            {"array": ArrayConfig(), "algo": Algorithm.DP_SGD_R})
        other = runner.config_hash(
            {"array": ArrayConfig(height=64), "algo": Algorithm.DP_SGD_R})
        assert first == second != other


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        cache.put("abc123", {"k": 1}, [{"speedup": 2.5}])
        assert cache.get("abc123") == [{"speedup": 2.5}]

    def test_missing_returns_none(self, tmp_path):
        assert runner.ResultCache(tmp_path).get("nope") is None

    def test_corrupt_returns_none(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        cache.root.mkdir(exist_ok=True)
        cache.path("bad").write_text("{not json")
        assert cache.get("bad") is None

    def test_entry_keeps_key_for_debugging(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        cache.put("abc", {"model": "VGG-16"}, 42)
        payload = json.loads(cache.path("abc").read_text())
        assert payload["key"] == {"model": "VGG-16"}

    def test_put_many_roundtrip_and_single_batch(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        entries = [(f"h{i}", {"k": i}, i * 10) for i in range(5)]
        cache.put_many(entries)
        assert cache.get_many([h for h, _, _ in entries]) == \
            [0, 10, 20, 30, 40]
        # Entries stay debuggable (key persisted alongside the value).
        payload = json.loads(cache.path("h3").read_text())
        assert payload["key"] == {"k": 3}
        assert not list(tmp_path.glob("*.tmp"))

    def test_put_many_empty_is_noop(self, tmp_path):
        cache = runner.ResultCache(tmp_path / "never-created")
        cache.put_many([])
        assert not (tmp_path / "never-created").exists()

    def test_put_many_failure_leaves_no_temp_files(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put_many([("ok", {"k": 1}, 1),
                            ("bad", {"k": 2}, object())])
        assert not list(tmp_path.glob("*.tmp"))

    def test_cached_batch_computes_only_misses(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        calls = []

        def batch_fn(items):
            calls.append(list(items))
            return [x * 10 for x in items]

        key_fn = lambda x: {"item": x}  # noqa: E731
        first = runner.cached_batch(batch_fn, [1, 2], key_fn=key_fn,
                                    cache=cache)
        assert first == [10, 20]
        second = runner.cached_batch(batch_fn, [1, 2, 3], key_fn=key_fn,
                                     cache=cache)
        assert second == [10, 20, 30]
        # One batched call per grid, covering only the misses.
        assert calls == [[1, 2], [3]]
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_cached_batch_without_cache_calls_through(self):
        assert runner.cached_batch(
            lambda items: [x + 1 for x in items], [1, 2],
            key_fn=lambda x: x, cache=None) == [2, 3]

    def test_cached_batch_rejects_wrong_length(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        with pytest.raises(ValueError, match="batch_fn returned"):
            runner.cached_batch(lambda items: [], [1],
                                key_fn=lambda x: x, cache=cache)

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Hammer one entry from many threads while reading it back:
        every read must observe a complete payload (old or new), never
        torn JSON, and no temp files may leak."""
        import threading

        cache = runner.ResultCache(tmp_path)
        payloads = [[{"writer": w, "blob": "x" * 4096}] * 8
                    for w in range(4)]
        errors = []

        def writer(payload):
            for _ in range(25):
                cache.put("contended", {"k": 1}, payload)

        def reader():
            # Parse the raw file directly: going through get() would
            # mask a torn write as None and hide the very bug this
            # test exists to catch.
            path = cache.path("contended")
            for _ in range(200):
                try:
                    payload = json.loads(path.read_text())
                except FileNotFoundError:
                    continue  # no write published yet
                except json.JSONDecodeError as err:
                    errors.append(f"torn JSON: {err}")
                    continue
                if payload["value"] not in payloads:
                    errors.append(payload["value"])

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.get("contended") in payloads
        assert not list(tmp_path.glob("*.tmp"))

    def test_put_failure_leaves_no_temp_files(self, tmp_path):
        cache = runner.ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.put("bad", {"k": 1}, object())  # not JSON-serializable
        assert not list(tmp_path.glob("*.tmp"))
        assert cache.get("bad") is None

    def test_default_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = runner.default_cache()
        assert cache is not None and cache.root == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert runner.default_cache() is None


class TestDesignSpace:
    def test_evaluate_point_is_json_serializable(self):
        row = evaluate_point("SqueezeNet", 128, 128)
        json.dumps(row)
        assert row["speedup"] > 1.0
        assert row["ws_ms"] > row["diva_ms"]

    def test_run_uses_cache(self, tmp_path):
        from repro.experiments import design_space

        cache = runner.ResultCache(tmp_path)
        rows = design_space.run(models=("SqueezeNet",), heights=(128,),
                                cache=cache)
        again = design_space.run(models=("SqueezeNet",), heights=(128,),
                                 cache=cache)
        assert rows == again
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_render_includes_rows(self):
        from repro.experiments import design_space

        rows = [{"model": "SqueezeNet", "height": 128, "width": 128,
                 "batch": 4096, "ws_ms": 2.0, "diva_ms": 1.0,
                 "speedup": 2.0}]
        text = design_space.render(rows)
        assert "SqueezeNet" in text and "128x128" in text

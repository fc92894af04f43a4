"""AST lint: rule units on synthetic modules + the repo-wide gate."""

import textwrap
from pathlib import Path

from repro.verify.lint import (
    LintConfig,
    lint_package,
    lint_path,
    lint_source,
)


def _lint(source, rel_path="netsim/mod.py", config=None):
    return lint_source(textwrap.dedent(source), rel_path,
                       config or LintConfig())


class TestMutableDefaults:
    def test_list_default_flagged(self):
        findings = _lint("def f(x=[]):\n    return x\n")
        assert [d.code for d in findings] == ["REP301"]

    def test_dict_set_and_call_defaults_flagged(self):
        findings = _lint("""
            def f(a={}, b=set(), c=dict(), *, d=list()):
                return a, b, c, d
        """)
        assert [d.code for d in findings] == ["REP301"] * 4

    def test_immutable_defaults_clean(self):
        findings = _lint("""
            def f(a=None, b=3, c=(), d="x", e=frozenset()):
                return a, b, c, d, e
        """)
        assert findings == []

    def test_method_and_nested_functions_checked(self):
        findings = _lint("""
            class C:
                def m(self, x=[]):
                    def inner(y={}):
                        return y
                    return inner(x)
        """)
        assert len(findings) == 2


class TestBareExcept:
    def test_bare_except_flagged(self):
        findings = _lint("""
            try:
                pass
            except:
                pass
        """)
        assert [d.code for d in findings] == ["REP302"]

    def test_typed_except_clean(self):
        findings = _lint("""
            try:
                pass
            except (ValueError, KeyError):
                pass
            except Exception:
                pass
        """)
        assert findings == []


class TestUnseededRandom:
    def test_numpy_global_rng_flagged_in_scope(self):
        findings = _lint("import numpy as np\nx = np.random.rand(3)\n")
        assert [d.code for d in findings] == ["REP303"]

    def test_stdlib_random_flagged_in_scope(self):
        findings = _lint("import random\nx = random.randint(0, 9)\n",
                         rel_path="learning/mod.py")
        assert [d.code for d in findings] == ["REP303"]

    def test_default_rng_is_fine(self):
        findings = _lint("""
            import numpy as np
            rng = np.random.default_rng(7)
            x = rng.normal()
            g = np.random.Generator(np.random.PCG64(7))
        """)
        assert findings == []

    def test_out_of_scope_module_not_checked(self):
        findings = _lint("import numpy as np\nx = np.random.rand(3)\n",
                         rel_path="analysis/mod.py")
        assert findings == []


class TestWallClock:
    def test_time_time_flagged_in_simulator_code(self):
        findings = _lint("import time\nt = time.time()\n")
        assert [d.code for d in findings] == ["REP304"]

    def test_perf_counter_and_monotonic_fine(self):
        findings = _lint("""
            import time
            a = time.perf_counter()
            b = time.monotonic()
        """)
        assert findings == []

    def test_out_of_scope_time_time_allowed(self):
        findings = _lint("import time\nt = time.time()\n",
                         rel_path="analysis/mod.py")
        assert findings == []


class TestObsClock:
    def test_every_wallclock_read_flagged_in_obs(self):
        findings = _lint("""
            import time
            a = time.time()
            b = time.monotonic()
            c = time.perf_counter()
            d = time.perf_counter_ns()
        """, rel_path="obs/tracing.py")
        assert [d.code for d in findings] == ["REP306"] * 4

    def test_injectable_clock_is_clean(self):
        findings = _lint("""
            def span(self):
                return self.clock.now()
        """, rel_path="obs/tracing.py")
        assert findings == []

    def test_out_of_scope_monotonic_allowed(self):
        # chaos' MonotonicClock wraps the wall clock on purpose: it IS
        # the injectable boundary obs code reads through.
        findings = _lint("import time\nt = time.monotonic()\n",
                         rel_path="chaos/resilience.py")
        assert findings == []

    def test_scope_configurable_from_pyproject_key(self):
        config = LintConfig(obs_clock_scope=["telemetry"])
        findings = _lint("import time\nt = time.monotonic()\n",
                         rel_path="telemetry/mod.py", config=config)
        assert [d.code for d in findings] == ["REP306"]


class TestParallelSubmissions:
    def test_lambda_in_submit_flagged(self):
        findings = _lint("pool.submit(lambda: work())\n",
                         rel_path="analysis/mod.py")
        assert [d.code for d in findings] == ["REP305"]

    def test_lambda_in_map_tasks_flagged(self):
        findings = _lint(
            "executor.map_tasks(lambda x: x + 1, tasks)\n",
            rel_path="analysis/mod.py")
        assert [d.code for d in findings] == ["REP305"]

    def test_applies_everywhere_not_just_scoped_packages(self):
        findings = _lint("self._pool.submit(lambda: 1)\n",
                         rel_path="whatever/mod.py")
        assert [d.code for d in findings] == ["REP305"]

    def test_module_level_function_submission_clean(self):
        findings = _lint("""
            executor.map_tasks(kernel, tasks)
            pool.submit(kernel, shipment, time_range)
        """, rel_path="analysis/mod.py")
        assert findings == []

    def test_lambdas_elsewhere_are_not_flagged(self):
        findings = _lint("""
            items.sort(key=lambda x: x.rid)
            plain_submit = submit(lambda: 1)
            other.map(lambda x: x, xs)
        """, rel_path="analysis/mod.py")
        assert findings == []


class TestQueryInternals:
    def test_scan_internal_call_flagged_outside_planner(self):
        findings = _lint("""
            from repro.datastore.query import _scan_segment

            def peek(segment, query):
                return _scan_segment(segment, query)
        """, rel_path="analysis/mod.py")
        assert [d.code for d in findings] == ["REP307"]

    def test_attribute_chain_call_flagged(self):
        findings = _lint("""
            import repro.datastore.query as q

            def peek(cols, tr, where):
                return q.columnar_positions(cols, tr, where)
        """, rel_path="learning/mod.py")
        assert [d.code for d in findings] == ["REP307"]

    def test_planner_and_executor_modules_allowed(self):
        source = """
            def execute(segment, query):
                return _scan_segment(segment, query)
        """
        for rel_path in ("datastore/query.py", "datastore/planner.py",
                         "parallel/kernels.py"):
            assert _lint(source, rel_path=rel_path) == []

    def test_public_query_api_is_clean(self):
        findings = _lint("""
            from repro.datastore.query import execute_query

            def fetch(store, query):
                return execute_query(store, query)
        """, rel_path="analysis/mod.py")
        assert findings == []

    def test_scope_configurable_from_pyproject_key(self):
        config = LintConfig(query_internal_scope=["analysis"])
        findings = _lint(
            "def f(s, q):\n    return _scan_segment(s, q)\n",
            rel_path="analysis/mod.py", config=config)
        assert findings == []

    def test_inline_suppression(self):
        findings = _lint(
            "def f(s, q):\n"
            "    return _scan_segment(s, q)  # rep: ignore[REP307]\n",
            rel_path="analysis/mod.py")
        assert findings == []


class TestSegmentMutation:
    def test_segments_accessor_mutation_flagged_outside_scope(self):
        findings = _lint("""
            def drop_first(store):
                store.segments("packets").remove(
                    store.segments("packets")[0])
        """, rel_path="analysis/mod.py")
        assert [d.code for d in findings] == ["REP308"]

    def test_private_segments_map_mutation_flagged(self):
        findings = _lint("""
            def graft(store, segment):
                store._segments["packets"].append(segment)
        """, rel_path="capture/mod.py")
        assert [d.code for d in findings] == ["REP308"]

    def test_every_list_mutator_flagged(self):
        findings = _lint("""
            def churn(store, seg):
                segs = "unused"
                store.segments("packets").append(seg)
                store.segments("packets").extend([seg])
                store.segments("packets").insert(0, seg)
                store.segments("packets").pop()
                store.segments("packets").clear()
                store.segments("packets").sort()
                store.segments("packets").reverse()
        """, rel_path="analysis/mod.py")
        assert [d.code for d in findings] == ["REP308"] * 7

    def test_reads_and_sanctioned_api_are_clean(self):
        findings = _lint("""
            def inspect(store, collection, segment):
                n = len(store.segments(collection))
                first = store.segments(collection)[0]
                store.evict_segment(collection, segment)
                return n, first
        """, rel_path="analysis/mod.py")
        assert findings == []

    def test_unrelated_list_mutation_is_clean(self):
        findings = _lint("""
            def collect(rows):
                out = []
                out.append(rows)
                out.sort()
                return out
        """, rel_path="analysis/mod.py")
        assert findings == []

    def test_store_and_tiers_modules_allowed(self):
        source = """
            def _splice(self, remove, insert):
                self._segments["packets"].append(insert)
                self.segments("packets").remove(remove)
        """
        for rel_path in ("datastore/store.py", "datastore/tiers.py"):
            assert _lint(source, rel_path=rel_path) == []

    def test_scope_configurable_from_pyproject_key(self):
        config = LintConfig(segment_mutation_scope=["analysis"])
        findings = _lint(
            "def f(store, seg):\n"
            "    store.segments(\"packets\").append(seg)\n",
            rel_path="analysis/mod.py", config=config)
        assert findings == []

    def test_inline_suppression(self):
        findings = _lint(
            "def f(store, seg):\n"
            "    store.segments(\"p\").append(seg)"
            "  # rep: ignore[REP308]\n",
            rel_path="analysis/mod.py")
        assert findings == []


class TestExemptions:
    def test_specific_exemption_suppresses(self):
        config = LintConfig(exemptions={"netsim/mod.py:REP304"})
        findings = _lint("import time\nt = time.time()\n", config=config)
        assert findings == []

    def test_wildcard_exemption_suppresses_all(self):
        config = LintConfig(exemptions={"netsim/mod.py:*"})
        findings = _lint("def f(x=[]):\n    return time.time()\n",
                         config=config)
        assert findings == []

    def test_exemption_is_path_specific(self):
        config = LintConfig(exemptions={"netsim/other.py:REP304"})
        findings = _lint("import time\nt = time.time()\n", config=config)
        assert [d.code for d in findings] == ["REP304"]


class TestLintPath:
    def test_walks_tree_and_reports_relative_paths(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "netsim").mkdir(parents=True)
        (package / "netsim" / "bad.py").write_text(
            "import time\n\n\ndef f(x=[]):\n    return time.time()\n")
        (package / "clean.py").write_text("def f(x=None):\n    return x\n")
        report = lint_path(package, config=LintConfig())
        codes = sorted(d.code for d in report.diagnostics)
        assert codes == ["REP301", "REP304"]
        assert all(d.location.file == "netsim/bad.py"
                   for d in report.diagnostics)

    def test_unparseable_module_rep300(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "broken.py").write_text("def f(:\n")
        report = lint_path(package, config=LintConfig())
        assert [d.code for d in report.diagnostics] == ["REP300"]

    def test_excluded_directories_skipped(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        (package / "__pycache__" / "junk.py").write_text("def f(x=[]): pass")
        report = lint_path(package, config=LintConfig())
        assert report.diagnostics == []


class TestConfig:
    def test_from_pyproject_reads_repo_config(self):
        import repro

        config = LintConfig.from_pyproject(
            Path(repro.__file__).resolve().parent)
        assert "netsim" in config.seeded_random_scope
        assert "netsim" in config.wallclock_scope

    def test_missing_pyproject_falls_back_to_defaults(self, tmp_path):
        config = LintConfig.from_pyproject(tmp_path)
        assert config.seeded_random_scope


class TestRepoGate:
    def test_repo_lint_is_green(self):
        """The tier-1 gate: the whole installed package passes the
        project AST rules (exemptions, if any, live in pyproject)."""
        report = lint_package()
        assert report.ok, "\n" + report.render_text()
        assert report.diagnostics == [], "\n" + report.render_text()


class TestSharedParseCache:
    def test_one_parse_per_file_across_all_rules(self, monkeypatch):
        """Regression: the engine parses each module exactly once and
        every rule family (patterns, taint, parallel) shares the
        :class:`ParsedModule` cache."""
        import ast as ast_module

        from repro.verify.lint import LintEngine

        real_parse = ast_module.parse
        parsed = []

        def spy(source, *args, **kwargs):
            parsed.append(kwargs.get("filename")
                          or (args[0] if args else "<unknown>"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast_module, "parse", spy)
        sources = {
            "pkg/a.py": "def f(r, out):\n    out.write(r.src_ip)\n",
            "pkg/b.py": "_C = {}\n\ndef g(i):\n    _C[i] = 1\n\n"
                        "def run(ex, items):\n"
                        "    return ex.map_tasks(g, items)\n",
            "pkg/c.py": "def h(x=[]):\n    return x\n",
        }
        engine = LintEngine(LintConfig(taint_exempt_scope=[]),
                            use_baseline=False)
        report = engine.run_sources(sources)
        # every rule family found its finding off the shared trees...
        assert {d.code for d in report.diagnostics} == \
            {"REP401", "REP501", "REP301"}
        # ...and each file was parsed exactly once
        assert sorted(parsed) == sorted(sources)


class TestInlineSuppressions:
    def test_bare_ignore_suppresses_any_code(self):
        findings = _lint(
            "def f(x=[]):  # rep: ignore\n    return x\n")
        assert findings == []

    def test_listed_code_suppresses_only_that_code(self):
        findings = _lint(
            "import time\n"
            "t = time.time()  # rep: ignore[REP304]\n")
        assert findings == []

    def test_wrong_code_does_not_suppress(self):
        findings = _lint(
            "import time\n"
            "t = time.time()  # rep: ignore[REP301]\n")
        assert [d.code for d in findings] == ["REP304"]

    def test_suppressed_count_lands_in_report(self):
        from repro.verify.lint import LintEngine

        engine = LintEngine(LintConfig(), use_baseline=False)
        report = engine.run_sources({
            "netsim/m.py": "def f(x=[]):  # rep: ignore[REP301]\n"
                           "    return x\n"})
        assert report.diagnostics == []
        assert report.suppressed == 1


class TestBaseline:
    def _config(self, tmp_path):
        return LintConfig(taint_exempt_scope=[], config_dir=tmp_path,
                          baseline="baseline.json")

    def test_baselined_finding_is_filtered_and_counted(self, tmp_path):
        from repro.verify.lint import LintEngine, write_baseline

        config = self._config(tmp_path)
        source = "def f(r, out):\n    out.write(r.src_ip)\n"
        noisy = LintEngine(config, use_baseline=False).run_sources(
            {"m.py": source})
        assert len(noisy.diagnostics) == 1
        write_baseline(noisy.diagnostics, config.baseline_path())

        gated = LintEngine(config).run_sources({"m.py": source})
        assert gated.diagnostics == []
        assert gated.baselined == 1
        assert gated.ok

    def test_new_finding_still_fails_the_gate(self, tmp_path):
        from repro.verify.lint import LintEngine, write_baseline

        config = self._config(tmp_path)
        old = "def f(r, out):\n    out.write(r.src_ip)\n"
        noisy = LintEngine(config, use_baseline=False).run_sources(
            {"m.py": old})
        write_baseline(noisy.diagnostics, config.baseline_path())

        grown = old + "\ndef g(r):\n    print(r.dst_ip)\n"
        gated = LintEngine(config).run_sources({"m.py": grown})
        assert [d.code for d in gated.diagnostics] == ["REP401"]
        assert gated.diagnostics[0].location.symbol == "g"
        assert gated.baselined == 1

    def test_fingerprint_survives_line_drift(self, tmp_path):
        from repro.verify.lint import LintEngine, write_baseline

        config = self._config(tmp_path)
        source = "def f(r, out):\n    out.write(r.src_ip)\n"
        noisy = LintEngine(config, use_baseline=False).run_sources(
            {"m.py": source})
        write_baseline(noisy.diagnostics, config.baseline_path())

        shifted = "import os\n\n\n" + source  # finding moves down 3 lines
        gated = LintEngine(config).run_sources({"m.py": shifted})
        assert gated.diagnostics == []
        assert gated.baselined == 1

    def test_update_baseline_preserves_justifications(self, tmp_path):
        import json

        from repro.verify.lint import (
            LintEngine,
            load_baseline,
            write_baseline,
        )

        config = self._config(tmp_path)
        source = "def f(r, out):\n    out.write(r.src_ip)\n"
        report = LintEngine(config, use_baseline=False).run_sources(
            {"m.py": source})
        path = config.baseline_path()
        write_baseline(report.diagnostics, path)

        payload = json.loads(path.read_text())
        assert payload["entries"][0]["justification"].startswith("TODO")
        payload["entries"][0]["justification"] = "raw export by design"
        path.write_text(json.dumps(payload))

        write_baseline(report.diagnostics, path,
                       previous=load_baseline(path))
        assert json.loads(path.read_text())["entries"][0][
            "justification"] == "raw export by design"


class TestJsonDiagnostics:
    def test_schema_and_flow_trace_round_trip(self):
        import json

        from repro.verify.lint import LintEngine

        engine = LintEngine(LintConfig(taint_exempt_scope=[]),
                            use_baseline=False)
        report = engine.run_sources(
            {"m.py": "def f(r, out):\n    out.write(r.src_ip)\n"})
        payload = json.loads(report.render_json())
        assert payload["schema"] == "repro.diagnostics/v1"
        assert payload["ok"] is False
        assert set(payload["counts"]) == {"error", "warning", "info"}
        diagnostic = payload["diagnostics"][0]
        assert diagnostic["code"] == "REP401"
        assert diagnostic["severity"] == "error"
        assert diagnostic["location"] == {"file": "m.py", "line": 2,
                                          "symbol": "f"}
        trace = diagnostic["trace"]
        assert len(trace) >= 2
        assert {"file", "line", "note"} <= set(trace[0])


class TestCommittedBaseline:
    def test_repo_baseline_entries_are_justified(self):
        """Every committed exemption carries a real justification."""
        import json

        import repro

        repo_root = Path(repro.__file__).resolve().parents[2]
        baseline = repo_root / "lint-baseline.json"
        assert baseline.is_file()
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        for entry in payload["entries"]:
            assert entry["justification"]
            assert not entry["justification"].startswith("TODO")


class TestFluidHotPath:
    def test_packet_record_construction_flagged_in_fluid(self):
        findings = _lint("""
            from repro.netsim.packets import PacketRecord

            def emit(ts):
                return PacketRecord(timestamp=ts)
        """, rel_path="netsim/fluid.py")
        assert [d.code for d in findings] == ["REP309"]

    def test_iter_records_flagged_in_fluid(self):
        findings = _lint("""
            def drain(batch):
                return list(batch.iter_records())
        """, rel_path="netsim/fluid.py")
        assert [d.code for d in findings] == ["REP309"]

    def test_scalar_record_helpers_flagged(self):
        findings = _lint("""
            def slow(batch, packets, flow):
                a = batch.record(0)
                b = batch.from_records(packets)
                c = synthesize_packets(flow)
                return a, b, c
        """, rel_path="netsim/fluid.py")
        assert [d.code for d in findings] == ["REP309"] * 3

    def test_columnar_construction_is_clean(self):
        findings = _lint("""
            import numpy as np
            from repro.netsim.packets import DictColumn, PacketColumns

            def emit(ts):
                return PacketColumns.from_arrays(
                    timestamp=ts,
                    direction=DictColumn(np.zeros(1, dtype=np.int64),
                                         ["in"]))
        """, rel_path="netsim/fluid.py")
        assert findings == []

    def test_per_row_calls_flagged_in_segment_modules(self):
        findings = _lint("""
            def rows(cols, records, positions):
                built = [cols.record(p) for p in positions]
                return built, PacketColumns.from_records(records)
        """, rel_path="datastore/segments.py")
        assert [d.code for d in findings] == ["REP309"] * 2
        bulk = _lint("""
            def rows(cols, positions):
                return cols.records_at(positions)
        """, rel_path="datastore/tiers.py")
        assert bulk == []

    def test_other_modules_out_of_scope(self):
        source = """
            def rows(batch):
                return list(batch.iter_records())
        """
        for rel_path in ("datastore/store.py", "capture/engine.py",
                         "netsim/network.py"):
            assert _lint(source, rel_path=rel_path) == []

    def test_scope_configurable_from_pyproject_key(self):
        config = LintConfig(fluid_hot_scope=["capture/columnar.py"])
        source = "def f(b):\n    return b.iter_records()\n"
        assert [d.code for d in
                _lint(source, rel_path="capture/columnar.py",
                      config=config)] == ["REP309"]
        assert _lint(source, rel_path="netsim/fluid.py",
                     config=config) == []

    def test_inline_suppression(self):
        findings = _lint(
            "def f(b):\n"
            "    return b.iter_records()  # rep: ignore[REP309]\n",
            rel_path="netsim/fluid.py")
        assert findings == []

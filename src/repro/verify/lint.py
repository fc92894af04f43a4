"""Repo-wide static analysis: the lint engine and its rule plugins.

Grown from a single-AST-node pattern lint (PR 1) into a real static
analysis suite.  One :class:`LintEngine` run does exactly **one parse
per file** into a :class:`ParsedModule` cache; every rule family is a
plugin over that shared cache (and, for the dataflow families, over
the shared CFG/dataflow IR in :mod:`repro.verify.cfg` /
:mod:`repro.verify.dataflow`):

* **REP3xx** (:class:`PatternRules`) — the original single-node
  rules: mutable defaults, bare except, unseeded RNG, wall-clock
  reads, lambdas in task submissions.
* **REP4xx** (:class:`TaintRule`) — privacy taint flow over per-
  function CFGs with cross-module call-graph summaries
  (:mod:`repro.verify.taint`): no raw ``src_ip``/``dst_ip``/payload
  may reach an export/print sink without passing a
  :mod:`repro.privacy` sanitizer.
* **REP5xx** (:class:`ParallelRule`) — parallel-safety passes
  (:mod:`repro.verify.parallel_rules`): shipped functions must not
  mutate module globals, be closures, or use import-scope RNG/locks.

Findings can be silenced three ways, in precedence order:

1. **inline suppression** — ``# rep: ignore[REP401]`` (or a bare
   ``# rep: ignore`` for every code) on the diagnostic's line;
2. **committed baseline** — ``lint-baseline.json`` next to
   ``pyproject.toml`` maps finding fingerprints
   (``code:file:function``) to a one-line justification, for gradual
   adoption: old findings are tracked, new ones still fail CI;
3. **config exemptions** — the PR-1 ``exemptions`` list in
   ``[tool.repro.lint]`` (``"relative/path.py:REPxxx"``).

Configuration lives in ``pyproject.toml`` under ``[tool.repro.lint]``:
rule scopes, taint source/sink/sanitizer pattern sets, and the
baseline filename.  Entrypoints: ``repro verify --lint`` (CLI),
:func:`lint_package` (the tier-1 pytest gate), and
:func:`lint_package_cached` (the devloop verify stage).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.verify.diagnostics import Diagnostic, DiagnosticReport, diag

#: numpy.random attributes that are explicitly seed-disciplined.
_SEEDED_NP_ATTRS = {"default_rng", "Generator", "SeedSequence",
                    "PCG64", "Philox", "SFC64", "MT19937"}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
_MUTABLE_CALLS = {"list", "dict", "set"}

#: method names that ship their arguments into worker processes.
_SUBMIT_METHODS = {"submit", "map_tasks"}

#: ``time`` module attributes that read a wall clock (REP306).
_WALLCLOCK_ATTRS = {"time", "monotonic", "perf_counter",
                    "time_ns", "monotonic_ns", "perf_counter_ns"}

#: segment-scan internals only the planner/executor layer may call
#: (REP307).  Everyone else goes through execute_query/plan_query so
#: stats pruning, predicate ordering, and EXPLAIN stay accurate.
_QUERY_INTERNALS = {"_scan_segment", "_columnar_scan", "_record_scan",
                    "_candidate_positions", "columnar_positions"}

#: list-mutation methods that bypass the store's segment lifecycle
#: when called on a segment list (REP308).  Splice assignment inside
#: the tiering layer is the sanctioned publication primitive; everyone
#: else goes through evict_segment()/the compactor so registry state,
#: tier gauges, and on-disk cold segments stay consistent.
_SEGMENT_MUTATORS = {"append", "extend", "insert", "remove", "pop",
                     "clear", "sort", "reverse"}

#: record-at-a-time constructors/materializers forbidden on the columnar
#: packet path (REP309): the fluid engine synthesizes packets straight
#: into :class:`~repro.netsim.packets.PacketColumns` arrays, and the
#: store's segments keep them so, building rows only in bulk
#: (``PacketColumns.records_at``).  One ``PacketRecord`` per packet
#: would reintroduce the per-object cost both exist to eliminate.
_FLUID_SCALAR_CALLS = {"PacketRecord", "synthesize_packets",
                       "iter_records", "record", "from_records"}

#: inline suppression comment: ``# rep: ignore`` or
#: ``# rep: ignore[REP401]`` / ``# rep: ignore[REP401,REP503]``.
_SUPPRESS_RE = re.compile(
    r"#\s*rep:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")


# ---------------------------------------------------------------------------
# parsed-module cache
# ---------------------------------------------------------------------------

@dataclass
class ParsedModule:
    """One source file, parsed exactly once, shared by every rule."""

    rel_path: str
    source: str
    tree: ast.Module
    lines: List[str]

    def suppressions(self, line: int) -> Optional[Set[str]]:
        """Codes suppressed on ``line`` (empty set == all codes)."""
        if not (1 <= line <= len(self.lines)):
            return None
        match = _SUPPRESS_RE.search(self.lines[line - 1])
        if match is None:
            return None
        codes = match.group("codes")
        if codes is None:
            return set()
        return {c.strip() for c in codes.split(",") if c.strip()}

    def suppresses(self, line: int, code: str) -> bool:
        codes = self.suppressions(line)
        if codes is None:
            return False
        return not codes or code in codes


def parse_module(source: str, rel_path: str) -> ParsedModule:
    """The single parse chokepoint.

    Every rule consumes the :class:`ParsedModule` this returns; the
    regression suite spies on :func:`ast.parse` to pin "one parse per
    file" across the whole rule suite.
    """
    tree = ast.parse(source, filename=rel_path)
    return ParsedModule(rel_path=rel_path, source=source, tree=tree,
                        lines=source.splitlines())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class LintConfig:
    """What to lint and where each scoped rule applies.

    Paths are POSIX-style prefixes relative to the lint root (the
    package directory for :func:`lint_package`).  Taint pattern lists
    of ``None`` mean "use the built-in defaults from
    :class:`~repro.verify.taint.TaintRules`".
    """

    seeded_random_scope: List[str] = field(
        default_factory=lambda: ["netsim", "learning"])
    wallclock_scope: List[str] = field(
        default_factory=lambda: ["netsim", "capture", "deploy", "events",
                                 "testbed"])
    obs_clock_scope: List[str] = field(default_factory=lambda: ["obs"])
    #: the only modules allowed to call segment-scan internals (REP307).
    query_internal_scope: List[str] = field(
        default_factory=lambda: ["datastore/query.py",
                                 "datastore/planner.py",
                                 "parallel/kernels.py"])
    #: the only modules allowed to mutate segment lists in place
    #: (REP308); everyone else goes through evict_segment()/compaction.
    segment_mutation_scope: List[str] = field(
        default_factory=lambda: ["datastore/store.py",
                                 "datastore/tiers.py"])
    #: columnar packet-path modules where per-packet record
    #: construction is forbidden (REP309) — packets must stay columnar.
    fluid_hot_scope: List[str] = field(
        default_factory=lambda: ["netsim/fluid.py",
                                 "datastore/segments.py",
                                 "datastore/tiers.py"])
    exclude: List[str] = field(
        default_factory=lambda: ["__pycache__", ".egg-info"])
    #: checked-in intentional exceptions: "relative/path.py:REP303"
    #: (or "relative/path.py:*" for every rule in one file).
    exemptions: Set[str] = field(default_factory=set)

    # -- REP4xx taint configuration --
    #: path prefixes the taint pass *reports* on (None == everywhere).
    taint_scope: Optional[List[str]] = None
    #: path prefixes exempt from taint reporting (the privacy layer
    #: itself handles raw values by design).
    taint_exempt_scope: List[str] = field(
        default_factory=lambda: ["privacy"])
    taint_source_fields: Optional[List[str]] = None
    taint_source_calls: Optional[List[str]] = None
    taint_sinks: Optional[List[str]] = None
    taint_sanitizers: Optional[List[str]] = None
    #: REP403 federation boundary sinks: gateway send APIs / release
    #: envelope constructors; a tainted argument is a cross-site leak.
    taint_boundary_sinks: Optional[List[str]] = None

    #: committed findings baseline, relative to the pyproject directory.
    baseline: Optional[str] = "lint-baseline.json"
    #: directory pyproject.toml was found in (anchors the baseline).
    config_dir: Optional[Path] = None

    @classmethod
    def from_pyproject(cls, start: Path) -> "LintConfig":
        """Load ``[tool.repro.lint]`` from the nearest pyproject.toml.

        Falls back to defaults when no pyproject is found or the
        interpreter predates :mod:`tomllib`.
        """
        try:
            import tomllib
        except ImportError:
            return cls()
        start = Path(start).resolve()
        for directory in [start, *start.parents]:
            candidate = directory / "pyproject.toml"
            if candidate.is_file():
                with open(candidate, "rb") as handle:
                    data = tomllib.load(handle)
                section = data.get("tool", {}).get("repro", {}) \
                              .get("lint", {})
                config = cls(config_dir=directory)
                simple_lists = {
                    "seeded-random-scope": "seeded_random_scope",
                    "wallclock-scope": "wallclock_scope",
                    "obs-clock-scope": "obs_clock_scope",
                    "query-internal-scope": "query_internal_scope",
                    "segment-mutation-scope": "segment_mutation_scope",
                    "fluid-hot-scope": "fluid_hot_scope",
                    "exclude": "exclude",
                    "taint-scope": "taint_scope",
                    "taint-exempt-scope": "taint_exempt_scope",
                    "taint-source-fields": "taint_source_fields",
                    "taint-source-calls": "taint_source_calls",
                    "taint-sinks": "taint_sinks",
                    "taint-sanitizers": "taint_sanitizers",
                    "taint-boundary-sinks": "taint_boundary_sinks",
                }
                for key, attr in simple_lists.items():
                    if key in section:
                        setattr(config, attr, list(section[key]))
                if "exemptions" in section:
                    config.exemptions = set(section["exemptions"])
                if "baseline" in section:
                    config.baseline = section["baseline"] or None
                return config
        return cls()

    def in_scope(self, rel_path: str, scope: Sequence[str]) -> bool:
        return any(rel_path == prefix or rel_path.startswith(prefix + "/")
                   for prefix in scope)

    def exempt(self, rel_path: str, code: str) -> bool:
        return (f"{rel_path}:{code}" in self.exemptions
                or f"{rel_path}:*" in self.exemptions)

    def baseline_path(self) -> Optional[Path]:
        if self.baseline is None or self.config_dir is None:
            return None
        return self.config_dir / self.baseline

    def taint_rules(self):
        from repro.verify.taint import TaintRules

        rules = TaintRules()
        if self.taint_source_fields is not None:
            rules.source_fields = set(self.taint_source_fields)
        if self.taint_source_calls is not None:
            rules.source_calls = list(self.taint_source_calls)
        if self.taint_sinks is not None:
            rules.sinks = list(self.taint_sinks)
        if self.taint_sanitizers is not None:
            rules.sanitizers = list(self.taint_sanitizers)
        if self.taint_boundary_sinks is not None:
            rules.boundary_sinks = list(self.taint_boundary_sinks)
        return rules


# ---------------------------------------------------------------------------
# rule plugins
# ---------------------------------------------------------------------------

class LintContext:
    """Everything a rule may consume: config + the parsed-module cache.

    The cross-module :class:`~repro.verify.taint.ProjectIndex` is
    built once, lazily, and shared by the taint and parallel passes.
    """

    def __init__(self, config: LintConfig,
                 modules: Dict[str, ParsedModule]):
        self.config = config
        self.modules = modules
        self._index = None

    @property
    def index(self):
        if self._index is None:
            from repro.verify.taint import ProjectIndex

            self._index = ProjectIndex(
                {rel: pm.tree for rel, pm in self.modules.items()})
        return self._index


class _PatternVisitor(ast.NodeVisitor):
    """The REP3xx single-node rules, one AST walk per module."""

    def __init__(self, module: ParsedModule, config: LintConfig):
        self.module = module
        self.rel_path = module.rel_path
        self.config = config
        self.findings: List[Diagnostic] = []
        self._symbols: List[str] = []
        self._check_rng = config.in_scope(self.rel_path,
                                          config.seeded_random_scope)
        self._check_clock = config.in_scope(self.rel_path,
                                            config.wallclock_scope)
        self._check_obs_clock = config.in_scope(self.rel_path,
                                                config.obs_clock_scope)
        self._check_query_internals = not config.in_scope(
            self.rel_path, config.query_internal_scope)
        self._check_segment_mutation = not config.in_scope(
            self.rel_path, config.segment_mutation_scope)
        self._check_fluid_hot = config.in_scope(
            self.rel_path, config.fluid_hot_scope)

    def _report(self, code: str, message: str, line: int) -> None:
        self.findings.append(diag(
            code, message, file=self.rel_path, line=line,
            symbol=".".join(self._symbols) or None))

    # -- REP301 --------------------------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS)
            if mutable:
                self._report(
                    "REP301",
                    f"function {node.name!r} has a mutable default "
                    f"argument", default.lineno)

    def _visit_scoped(self, node) -> None:
        self._symbols.append(node.name)
        self.generic_visit(node)
        self._symbols.pop()

    def visit_FunctionDef(self, node) -> None:
        self._check_defaults(node)
        self._visit_scoped(node)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._check_defaults(node)
        self._visit_scoped(node)

    def visit_ClassDef(self, node) -> None:
        self._visit_scoped(node)

    # -- REP302 --------------------------------------------------------------

    def visit_ExceptHandler(self, node) -> None:
        if node.type is None:
            self._report("REP302", "bare except swallows every exception "
                         "including KeyboardInterrupt", node.lineno)
        self.generic_visit(node)

    # -- REP303 / REP304 / REP305 / REP306 -----------------------------------

    @staticmethod
    def _attr_chain(node) -> List[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        else:
            return []
        return parts[::-1]

    @staticmethod
    def _is_segment_list(node) -> bool:
        """Does this expression denote a store's segment list (REP308)?

        Two shapes: ``<expr>.segments(...)`` (the public accessor) and
        ``<expr>._segments[...]`` (the private per-collection map).
        """
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "segments":
            return True
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Attribute) and \
                    value.attr == "_segments":
                return True
            if isinstance(value, ast.Name) and value.id == "_segments":
                return True
        return False

    def visit_Call(self, node) -> None:
        chain = self._attr_chain(node.func)
        if self._check_rng and chain:
            if chain[0] == "random" and len(chain) == 2:
                self._report(
                    "REP303",
                    f"module-level RNG call random.{chain[1]}() is "
                    f"unseeded; thread a np.random.default_rng(seed)",
                    node.lineno)
            elif chain[0] in ("np", "numpy") and len(chain) == 3 and \
                    chain[1] == "random" and \
                    chain[2] not in _SEEDED_NP_ATTRS:
                self._report(
                    "REP303",
                    f"{chain[0]}.random.{chain[2]}() uses the global "
                    f"numpy RNG; thread a np.random.default_rng(seed)",
                    node.lineno)
        if self._check_clock and chain == ["time", "time"]:
            self._report(
                "REP304",
                "wall-clock time.time() in simulator code; use the "
                "event loop's simulated clock", node.lineno)
        if self._check_obs_clock and len(chain) == 2 and \
                chain[0] == "time" and chain[1] in _WALLCLOCK_ATTRS:
            self._report(
                "REP306",
                f"direct wall-clock time.{chain[1]}() in observability "
                f"code; read the injectable clock instead", node.lineno)
        if self._check_query_internals and chain and \
                chain[-1] in _QUERY_INTERNALS:
            self._report(
                "REP307",
                f"{chain[-1]}() is a segment-scan internal; call "
                f"execute_query/plan_query so planning (stats pruning, "
                f"predicate ordering, EXPLAIN) stays in the loop",
                node.lineno)
        if self._check_segment_mutation and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SEGMENT_MUTATORS and \
                self._is_segment_list(node.func.value):
            self._report(
                "REP308",
                f".{node.func.attr}() mutates a segment list directly; "
                f"call store.evict_segment() (or leave lifecycle to the "
                f"compactor) so registry state, tier gauges, and "
                f"on-disk cold segments stay consistent",
                node.lineno)
        if self._check_fluid_hot and chain and \
                chain[-1] in _FLUID_SCALAR_CALLS:
            self._report(
                "REP309",
                f"{chain[-1]}() materializes per-packet records on the "
                f"columnar packet path; keep packets as PacketColumns "
                f"(PacketColumns.from_arrays to synthesize, "
                f"records_at to build rows in bulk)",
                node.lineno)
        if len(chain) >= 2 and chain[-1] in _SUBMIT_METHODS:
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    self._report(
                        "REP305",
                        f"lambda passed to .{chain[-1]}() cannot be "
                        f"pickled into a worker process; use a "
                        f"module-level function", arg.lineno)
        self.generic_visit(node)


class PatternRules:
    """Plugin wrapper for the REP3xx per-module pattern rules."""

    codes = ("REP301", "REP302", "REP303", "REP304", "REP305", "REP306",
             "REP307", "REP308", "REP309")

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        for module in ctx.modules.values():
            visitor = _PatternVisitor(module, ctx.config)
            visitor.visit(module.tree)
            findings.extend(visitor.findings)
        return findings


class TaintRule:
    """Plugin wrapper for the REP4xx privacy taint analysis."""

    codes = ("REP401", "REP402", "REP403")

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        from repro.verify.taint import TaintAnalysis

        analysis = TaintAnalysis(
            {rel: pm.tree for rel, pm in ctx.modules.items()},
            rules=ctx.config.taint_rules(),
            index=ctx.index,
            report_scope=ctx.config.taint_scope,
            exempt_scope=ctx.config.taint_exempt_scope,
        )
        return analysis.run()


class ParallelRule:
    """Plugin wrapper for the REP5xx parallel-safety analysis."""

    codes = ("REP501", "REP502", "REP503")

    def check(self, ctx: LintContext) -> List[Diagnostic]:
        from repro.verify.parallel_rules import ParallelSafetyAnalysis

        analysis = ParallelSafetyAnalysis(
            {rel: pm.tree for rel, pm in ctx.modules.items()},
            index=ctx.index)
        return analysis.run()


#: the default rule suite, in reporting order.
DEFAULT_RULES: Tuple = (PatternRules, TaintRule, ParallelRule)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def load_baseline(path: Optional[Path]) -> Dict[str, str]:
    """fingerprint -> justification from a committed baseline file."""
    if path is None or not Path(path).is_file():
        return {}
    data = json.loads(Path(path).read_text())
    entries = data.get("entries", [])
    return {entry["fingerprint"]: entry.get("justification", "")
            for entry in entries}


def write_baseline(diagnostics: Iterable[Diagnostic], path: Path,
                   previous: Optional[Dict[str, str]] = None) -> int:
    """Write the baseline for the given findings; returns entry count.

    Justifications from an existing baseline are preserved; new
    entries get a ``TODO`` placeholder a reviewer must replace.
    """
    previous = previous or {}
    fingerprints = sorted({d.fingerprint for d in diagnostics})
    entries = [{"fingerprint": fp,
                "justification": previous.get(
                    fp, "TODO: justify or fix")}
               for fp in fingerprints]
    payload = {
        "version": 1,
        "comment": "Committed lint findings baseline: every entry is "
                   "an intentional, justified exception. New findings "
                   "not listed here fail `repro verify --lint`.",
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return len(entries)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class LintEngine:
    """Run the full rule suite over a set of modules, once."""

    def __init__(self, config: Optional[LintConfig] = None,
                 rules: Optional[Sequence] = None,
                 use_baseline: bool = True):
        self.config = config or LintConfig()
        self.rules = [rule() for rule in (rules or DEFAULT_RULES)]
        self.use_baseline = use_baseline

    def run_sources(self, sources: Dict[str, str],
                    subject: str = "lint") -> DiagnosticReport:
        """Lint in-memory sources: rel_path -> text."""
        report = DiagnosticReport(subject=subject)
        modules: Dict[str, ParsedModule] = {}
        for rel, source in sorted(sources.items()):
            try:
                modules[rel] = parse_module(source, rel)
            except SyntaxError as exc:
                report.add(diag("REP300", f"unparseable module: {exc}",
                                file=rel, line=exc.lineno or 0))
        ctx = LintContext(self.config, modules)

        findings: List[Diagnostic] = []
        for rule in self.rules:
            findings.extend(rule.check(ctx))
        findings.sort(key=lambda d: (d.location.file or "",
                                     d.location.line or 0, d.code))

        kept: List[Diagnostic] = []
        for diagnostic in findings:
            rel = diagnostic.location.file or ""
            line = diagnostic.location.line or 0
            if self.config.exempt(rel, diagnostic.code):
                continue
            module = modules.get(rel)
            if module is not None and \
                    module.suppresses(line, diagnostic.code):
                report.suppressed += 1
                continue
            kept.append(diagnostic)

        baseline = load_baseline(self.config.baseline_path()) \
            if self.use_baseline else {}
        for diagnostic in kept:
            if diagnostic.fingerprint in baseline:
                report.baselined += 1
            else:
                report.add(diagnostic)
        return report

    def run(self, root: Path, subject: Optional[str] = None
            ) -> DiagnosticReport:
        """Lint every ``*.py`` under ``root``."""
        root = Path(root)
        sources: Dict[str, str] = {}
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if any(marker in rel for marker in self.config.exclude):
                continue
            sources[rel] = path.read_text()
        return self.run_sources(sources,
                                subject=subject or f"lint:{root.name}")


# ---------------------------------------------------------------------------
# entrypoints (API-compatible with the PR-1 lint)
# ---------------------------------------------------------------------------

def lint_source(source: str, rel_path: str,
                config: Optional[LintConfig] = None) -> List[Diagnostic]:
    """Lint one module's text.  ``rel_path`` drives scoping/exemptions.

    Single-module convenience for tests and tooling: the full rule
    suite runs, but cross-module call edges obviously cannot resolve.
    """
    engine = LintEngine(config=config or LintConfig(),
                        use_baseline=False)
    report = engine.run_sources({rel_path: source}, subject=rel_path)
    return list(report.diagnostics)


def lint_path(root: Path,
              config: Optional[LintConfig] = None) -> DiagnosticReport:
    """Lint every ``*.py`` under ``root``; paths report relative to it."""
    root = Path(root)
    config = config or LintConfig.from_pyproject(root)
    return LintEngine(config=config).run(root)


def lint_package(config: Optional[LintConfig] = None) -> DiagnosticReport:
    """Lint the installed :mod:`repro` package tree (the tier-1 gate)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    return lint_path(root, config=config)


_PACKAGE_REPORT_CACHE: Optional[DiagnosticReport] = None


def lint_package_cached() -> DiagnosticReport:
    """One lint of the installed package per process.

    The devloop verify stage gates on this; caching keeps repeated
    ``develop()`` calls (cross-validation, per-class training) from
    re-analyzing an unchanged tree.
    """
    global _PACKAGE_REPORT_CACHE
    if _PACKAGE_REPORT_CACHE is None:
        _PACKAGE_REPORT_CACHE = lint_package()
    return _PACKAGE_REPORT_CACHE


def update_baseline(root: Optional[Path] = None,
                    config: Optional[LintConfig] = None) -> int:
    """Re-baseline: record every current finding as intentional.

    Returns the number of entries written.  Justifications already in
    the baseline are preserved; new entries get a TODO placeholder.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    config = config or LintConfig.from_pyproject(Path(root))
    path = config.baseline_path()
    if path is None:
        raise ValueError("no baseline path configured "
                         "([tool.repro.lint] baseline / pyproject dir)")
    engine = LintEngine(config=config, use_baseline=False)
    report = engine.run(Path(root))
    previous = load_baseline(path)
    return write_baseline(report.diagnostics, path, previous=previous)

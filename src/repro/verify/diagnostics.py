"""Diagnostics framework for the verification layer.

Every check in :mod:`repro.verify` — program structure, table
semantics, resource pre-checks, and the repo-wide AST lint — reports
its findings through the same vocabulary: a :class:`Diagnostic` with a
stable ``REPxxx`` code, a :class:`Severity`, a human message, and a
:class:`SourceLocation` that can point into a switch program
(program/table/entry/field) or into a source file (file/line).

Codes are allocated in blocks:

* ``REP0xx`` — structural program errors (malformed entries)
* ``REP1xx`` — semantic table findings (dead entries, overlaps)
* ``REP2xx`` — resource pre-check findings (budget misfits)
* ``REP3xx`` — repo-wide AST lint rules (single-node pattern rules)
* ``REP4xx`` — privacy taint-flow findings (dataflow over the CFG/IR)
* ``REP5xx`` — parallel-safety findings (shipped-function analysis)

Dataflow findings (REP4xx/REP5xx) carry a *flow trace*: an ordered
tuple of :class:`TraceStep` hops from the source read, through each
assignment, to the sink call, so a diagnostic is actionable without
re-running the analysis.

The registry below is the single source of truth for code -> (default
severity, title); ``repro verify`` and the docs render from it.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: code -> (default severity, one-line title).  Stable: codes are
#: append-only and never reused for a different meaning.
REP_CODES: Dict[str, Tuple[Severity, str]] = {
    # -- structural (REP0xx) --
    "REP001": (Severity.ERROR,
               "match value or mask exceeds declared key width"),
    "REP002": (Severity.ERROR,
               "range bounds invalid or exceed declared key width"),
    "REP003": (Severity.ERROR,
               "LPM prefix length outside [0, key width]"),
    "REP004": (Severity.ERROR,
               "entry references a key field the table does not declare"),
    "REP005": (Severity.ERROR,
               "entry or default references an unknown action"),
    "REP006": (Severity.ERROR,
               "action parameters missing, mistyped, or unexpected"),
    "REP007": (Severity.ERROR,
               "table key field has a missing or non-positive width"),
    # -- semantic (REP1xx) --
    "REP101": (Severity.WARNING,
               "entry is shadowed: fully covered by higher-priority "
               "entries and can never win a lookup"),
    "REP102": (Severity.WARNING,
               "ambiguous overlap between same-priority entries with "
               "different outcomes"),
    "REP103": (Severity.INFO,
               "default action is unreachable: entries cover the full "
               "key space"),
    "REP104": (Severity.INFO,
               "per-feature coverage gap: some key values match no entry"),
    "REP105": (Severity.INFO,
               "entry uses a non-interval ternary mask; excluded from "
               "semantic interval analysis"),
    "REP106": (Severity.INFO,
               "table too large for exhaustive semantic analysis"),
    # -- resources (REP2xx) --
    "REP201": (Severity.ERROR,
               "program TCAM demand exceeds the target's total budget"),
    "REP202": (Severity.ERROR,
               "program SRAM demand exceeds the target's available budget"),
    "REP203": (Severity.ERROR,
               "program needs more table slots than the target offers"),
    "REP204": (Severity.WARNING,
               "entry has pathological range-to-ternary expansion"),
    "REP205": (Severity.WARNING,
               "program consumes a large fraction of the TCAM budget"),
    "REP206": (Severity.INFO,
               "concurrent-copy headroom on the target"),
    # -- AST lint (REP3xx) --
    "REP300": (Severity.ERROR, "unparseable python module"),
    "REP301": (Severity.ERROR, "mutable default argument"),
    "REP302": (Severity.ERROR, "bare except clause"),
    "REP303": (Severity.ERROR,
               "unseeded module-level random generator call in "
               "seed-disciplined code"),
    "REP304": (Severity.ERROR,
               "wall-clock time.time() inside simulator code"),
    "REP305": (Severity.ERROR,
               "non-picklable lambda in a parallel task submission"),
    "REP306": (Severity.ERROR,
               "direct wall-clock read inside observability code; "
               "time must come through the injectable clock"),
    "REP307": (Severity.ERROR,
               "direct call to a segment-scan internal outside the "
               "planner/executor modules; go through the query planner"),
    "REP308": (Severity.ERROR,
               "direct segment-list mutation outside the store/tiering "
               "layer; go through evict_segment or the compactor"),
    "REP309": (Severity.ERROR,
               "per-packet record materialization on the columnar "
               "packet path (fluid engine, store segments); packets "
               "stay PacketColumns from tap to store"),
    # -- privacy taint flow (REP4xx) --
    "REP401": (Severity.ERROR,
               "raw privacy-sensitive value reaches an export/print "
               "sink without passing a repro.privacy sanitizer"),
    "REP402": (Severity.ERROR,
               "tainted value passed to a function whose parameter "
               "flows to an export/print sink (inter-procedural)"),
    "REP403": (Severity.ERROR,
               "raw privacy-sensitive value crosses a federation "
               "boundary (SiteGateway send / release envelope) without "
               "passing a repro.privacy sanitizer"),
    # -- parallel safety (REP5xx) --
    "REP501": (Severity.ERROR,
               "function shipped to worker processes mutates "
               "module-level mutable state (lost on fork/spawn)"),
    "REP502": (Severity.ERROR,
               "closure or nested function shipped to worker "
               "processes; closures cannot be pickled"),
    "REP503": (Severity.WARNING,
               "import-scope RNG/lock object used inside a function "
               "shipped to worker processes"),
}


@dataclass(frozen=True)
class TraceStep:
    """One hop in a dataflow trace: source read, assignment, or sink."""

    file: str
    line: int
    note: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.note}"

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic points.

    Program diagnostics fill ``program``/``table``/``entry``/``field``;
    lint diagnostics fill ``file``/``line`` (and ``symbol``, the
    enclosing function's qualified name, which anchors baseline
    fingerprints so they survive unrelated line drift).  All parts are
    optional so one type serves both worlds.
    """

    program: Optional[str] = None
    table: Optional[str] = None
    entry: Optional[int] = None
    field: Optional[str] = None
    file: Optional[str] = None
    line: Optional[int] = None
    symbol: Optional[str] = None

    def render(self) -> str:
        if self.file is not None:
            if self.line is not None:
                return f"{self.file}:{self.line}"
            return self.file
        parts = []
        if self.program is not None:
            parts.append(self.program)
        if self.table is not None:
            parts.append(self.table)
        where = "/".join(parts) if parts else "<program>"
        if self.entry is not None:
            where += f"[{self.entry}]"
        if self.field is not None:
            where += f".{self.field}"
        return where

    def to_json(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one verification pass."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    #: dataflow findings attach the full source->sink hop sequence.
    trace: Tuple[TraceStep, ...] = ()

    @property
    def title(self) -> str:
        return REP_CODES[self.code][1]

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselines: ``code:file:symbol``.

        Deliberately excludes line numbers (and therefore the trace)
        so a committed baseline entry survives edits elsewhere in the
        file; all same-code findings in one function share one entry.
        """
        return (f"{self.code}:{self.location.file or '<none>'}:"
                f"{self.location.symbol or '<module>'}")

    def render(self) -> str:
        head = (f"{self.severity.value:7s} {self.code} "
                f"{self.location.render()}: {self.message}")
        if not self.trace:
            return head
        steps = "\n".join(f"      {i + 1}. {step.render()}"
                          for i, step in enumerate(self.trace))
        return f"{head}\n    flow:\n{steps}"

    def to_json(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_json(),
        }
        if self.trace:
            record["trace"] = [step.to_json() for step in self.trace]
        return record


def diag(code: str, message: str, *,
         severity: Optional[Severity] = None,
         program: Optional[str] = None, table: Optional[str] = None,
         entry: Optional[int] = None, field: Optional[str] = None,
         file: Optional[str] = None,
         line: Optional[int] = None,
         symbol: Optional[str] = None,
         trace: Tuple[TraceStep, ...] = ()) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from the registry."""
    if code not in REP_CODES:
        raise KeyError(f"unregistered diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        severity=severity or REP_CODES[code][0],
        message=message,
        location=SourceLocation(program=program, table=table, entry=entry,
                                field=field, file=file, line=line,
                                symbol=symbol),
        trace=tuple(trace),
    )


@dataclass
class DiagnosticReport:
    """Accumulated findings, with text and JSON reporters."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: findings silenced by inline ``# rep: ignore[...]`` comments.
    suppressed: int = 0
    #: findings matched against the committed baseline file.
    baselined: int = 0

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    # -- queries -------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when nothing error-level was found."""
        return not self.errors

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def counts(self) -> Dict[str, int]:
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
        }

    # -- reporters -----------------------------------------------------------

    def render_text(self, min_severity: Severity = Severity.INFO) -> str:
        lines = []
        shown = [d for d in
                 sorted(self.diagnostics, key=lambda d: d.severity.rank)
                 if d.severity.rank <= min_severity.rank]
        for diagnostic in shown:
            lines.append(diagnostic.render())
        counts = self.counts()
        subject = f"{self.subject}: " if self.subject else ""
        tail = ""
        if self.suppressed or self.baselined:
            tail = (f" ({self.suppressed} suppressed inline, "
                    f"{self.baselined} baselined)")
        lines.append(f"{subject}{counts['error']} error(s), "
                     f"{counts['warning']} warning(s), "
                     f"{counts['info']} info{tail}")
        return "\n".join(lines)

    # `render` aliases `render_text` so report-producing commands can
    # share the CLI `_emit_report` helper with chaos/obs reports.
    def render(self) -> str:
        return self.render_text()

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro.diagnostics/v1",
            "subject": self.subject,
            "ok": self.ok,
            "counts": self.counts(),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)


class ProgramVerificationError(Exception):
    """Raised when a program with error-level diagnostics is about to
    cross a trust boundary (deployment, switch load)."""

    def __init__(self, report: DiagnosticReport):
        self.report = report
        codes = ", ".join(sorted({d.code for d in report.errors}))
        super().__init__(
            f"verification failed for {report.subject or 'program'}: "
            f"{len(report.errors)} error(s) [{codes}]"
        )

"""The reprolint framework: rules, findings, suppressions, file walking.

Every correctness property this reproduction stands on — bit-identical
replay engines, crash-safe atomic publication, engine-free
cache fingerprints — is prose in ROADMAP.md and a handful of runtime
assertions in the test suite.  This module turns those contracts into
statically checked invariants: each :class:`Rule` walks a file's AST and
emits :class:`Finding` objects with exact source locations, and the
whole pass gates tier-1 (``tests/test_analysis.py``) so a violation
fails the build instead of shipping silently until a test happens to
exercise it.

Vocabulary:

* **Rule** — one invariant, identified by a stable kebab-case
  ``rule_id`` and registered via :func:`register_rule`.  A rule decides
  which files it applies to from the file's path (e.g. determinism only
  inside ``repro/uarch/``), so fixture files in tests opt into a rule
  simply by living under a matching relative path.
* **Finding** — one violation: rule id, path, 1-based line, 0-based
  column, message.  Formats as ``path:line:col: [rule-id] message``.
* **Suppression** — the comment pragma ``# repro: allow[rule-id]``,
  placed either on the offending line or alone on the line directly
  above it, acknowledges a finding.  Append a justification after the
  bracket (``# repro: allow[exception-hygiene] pickle may raise
  anything``); suppressed findings are counted and reportable, never
  silently dropped.

The public entry points are :func:`lint_source` (one string — unit
tests), :func:`lint_file` and :func:`lint_paths` (files/trees — the CLI
and the tier-1 gate).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: ``# repro: allow[rule-id]`` with an optional trailing justification.
#: Several ids may share one pragma, comma-separated.
PRAGMA_PATTERN = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\- ]+)\]")

#: Rule id reserved for files the parser itself rejects.
SYNTAX_RULE_ID = "syntax-error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"


class Rule:
    """Base class for one statically checked invariant.

    Subclasses set :attr:`rule_id` (stable, kebab-case — it is the
    suppression key and the CLI ``--select`` token) and
    :attr:`contract` (the one-line statement of the repo contract the
    rule encodes, shown by ``--list-rules``), and implement
    :meth:`check`.  Override :meth:`applies_to` to scope the rule to a
    path subset; it receives the file's POSIX-style path string.
    """

    rule_id: str = ""
    contract: str = ""

    def applies_to(self, posix_path: str) -> bool:
        return True

    def check(self, tree: ast.AST, path: str) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, path: str, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node``'s source location."""
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry.

    Ids must be unique and non-empty — the suppression syntax and the
    CLI both address rules by id, so a collision would make one of the
    two rules unreachable.
    """
    if not cls.rule_id:
        raise ValueError(f"rule class {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rules(select: Optional[Sequence[str]] = None) -> list[Rule]:
    """Rules to run: all of them, or the ``select`` subset by id."""
    if select is None:
        return all_rules()
    unknown = sorted(set(select) - set(_REGISTRY))
    if unknown:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown rule id(s) {unknown}; known: {known}")
    return [_REGISTRY[rule_id]() for rule_id in sorted(set(select))]


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids allowed on them.

    A pragma sharing a line with code covers that line; a pragma on a
    comment-only line covers the next line (the conventional place when
    the offending line has no room).  Ids are not validated here — an
    unknown id simply never matches a finding, so a typo'd pragma
    suppresses nothing (and the finding it failed to cover surfaces).
    """
    allowed: dict[int, set[str]] = {}
    for index, text in enumerate(source.splitlines(), start=1):
        match = PRAGMA_PATTERN.search(text)
        if not match:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        target = index + 1 if text.lstrip().startswith("#") else index
        allowed.setdefault(target, set()).update(ids)
    return allowed


@dataclass
class LintResult:
    """Aggregated outcome of one lint pass."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files: int = 0

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files += other.files

    def by_rule(self) -> dict[str, int]:
        """Finding counts per rule id (for the advisory summary)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts


def lint_source(
    source: str, path: str | Path, rules: Optional[Sequence[Rule]] = None
) -> LintResult:
    """Lint one source string as though it lived at ``path``.

    ``path`` drives rule scoping (see :meth:`Rule.applies_to`), so unit
    tests exercise a path-scoped rule by naming their fixture
    accordingly (``tmp/repro/uarch/mod.py``).  Unparseable source yields
    a single :data:`SYNTAX_RULE_ID` finding rather than an exception —
    the advisory trees may hold scratch files.
    """
    posix = Path(path).as_posix()
    result = LintResult(files=1)
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as error:
        result.findings.append(
            Finding(
                rule_id=SYNTAX_RULE_ID,
                path=posix,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                message=f"file does not parse: {error.msg}",
            )
        )
        return result
    allowed = parse_suppressions(source)
    for rule in all_rules() if rules is None else rules:
        if not rule.applies_to(posix):
            continue
        for finding in rule.check(tree, posix):
            if finding.rule_id in allowed.get(finding.line, ()):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return result


def lint_file(path: str | Path, rules: Optional[Sequence[Rule]] = None) -> LintResult:
    """Lint one file from disk; undecodable bytes read as a syntax finding."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        result = LintResult(files=1)
        result.findings.append(
            Finding(
                rule_id=SYNTAX_RULE_ID,
                path=path.as_posix(),
                line=1,
                col=0,
                message=f"file cannot be read as UTF-8 source: {error}",
            )
        )
        return result
    return lint_source(source, path, rules)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` in sorted order.

    Hidden directories (``.git``, the caches' dot-prefixed state) and
    ``__pycache__`` are skipped.  A path that is itself a file is
    yielded as-is, so the CLI accepts files and trees alike.
    """
    for entry in paths:
        entry = Path(entry)
        if entry.is_file():
            yield entry
            continue
        for path in sorted(entry.rglob("*.py")):
            relative = path.relative_to(entry)
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in relative.parts[:-1]
            ):
                continue
            if path.name.startswith("."):
                continue
            yield path


def lint_paths(
    paths: Iterable[str | Path], rules: Optional[Sequence[Rule]] = None
) -> LintResult:
    """Lint every Python file under ``paths``; the main entry point."""
    result = LintResult()
    for path in iter_python_files(paths):
        result.extend(lint_file(path, rules))
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return result

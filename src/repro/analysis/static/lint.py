"""The domain lint engine behind ``repro analyze`` and ``make lint``.

Parses each file once, runs every :class:`~repro.analysis.static.rules.LintRule`
over the AST, filters suppressed findings (``# noqa`` /
``# noqa: REP101,REP103`` on the flagged line), and reports
deterministically sorted violations.

Usage::

    from repro.analysis.static import LintEngine
    violations = LintEngine().check_paths(["src"])

or from the shell::

    python -m repro analyze src/        # exit 1 on any violation
    python -m repro analyze --list-rules
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence

from .rules import ALL_RULES, KNOWN_RULE_IDS, LintRule, Violation

__all__ = [
    "LintEngine",
    "Violation",
    "analyze_paths",
    "format_violations",
    "iter_python_files",
    "line_suppresses",
]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: ``REP``-shaped codes inside a noqa pragma; anything else on the line
#: (``E731``, ruff codes, ...) belongs to other tools and is ignored.
_REP_CODE_RE = re.compile(r"^REP\d+$")

#: Directory names never descended into.
_EXCLUDED_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "build",
    "dist",
}


def line_suppresses(line: str, rule_id: str) -> bool:
    """Whether ``line`` carries a ``# noqa`` pragma covering ``rule_id``.

    A bare ``# noqa`` silences every rule on its line; a code list
    (``# noqa: REP101,REP103``) silences exactly the named rules.
    """
    m = _NOQA_RE.search(line)
    if m is None:
        return False
    codes = m.group("codes")
    if codes is None:
        return True  # bare ``# noqa`` silences every rule
    wanted = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return rule_id.upper() in wanted


def _unknown_noqa_codes(line: str) -> List[str]:
    """REP-shaped noqa codes on ``line`` that name no registered rule.

    A typo'd pragma (a code list naming, say, ``REP210``) suppresses
    nothing, which is exactly when the author most needs to hear about
    it.  Non-REP codes are other tools' business and never warned on.
    """
    m = _NOQA_RE.search(line)
    if m is None or m.group("codes") is None:
        return []
    codes = sorted(
        {c.strip().upper() for c in m.group("codes").split(",") if c.strip()}
    )
    return [
        c for c in codes if _REP_CODE_RE.match(c) and c not in KNOWN_RULE_IDS
    ]


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files and/or directory trees into a deterministic,
    duplicate-free list of ``.py`` paths."""
    out: List[str] = []
    seen = set()
    for target in paths:
        target = os.path.normpath(target)
        if os.path.isdir(target):
            for root, dirs, files in os.walk(target):
                dirs[:] = sorted(d for d in dirs if d not in _EXCLUDED_DIRS)
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        if full not in seen:
                            seen.add(full)
                            out.append(full)
        elif target not in seen:
            seen.add(target)
            out.append(target)
    return out


class LintEngine:
    """Runs a rule set over sources, files or directory trees.

    Parameters
    ----------
    rules:
        Rule instances to run; default
        :data:`repro.analysis.static.rules.ALL_RULES`.
    """

    def __init__(self, rules: Optional[Sequence[LintRule]] = None):
        self.rules: Sequence[LintRule] = (
            tuple(rules) if rules is not None else ALL_RULES
        )
        #: Non-fatal diagnostics from the last ``check_*`` call —
        #: currently noqa pragmas naming unregistered REP rules.
        self.warnings: List[str] = []

    # ------------------------------------------------------------------
    def check_source(self, source: str, path: str = "<string>") -> List[Violation]:
        """Lint one source string (already-read file contents).

        Appends to :attr:`warnings` for every noqa pragma that names an
        unknown REP rule id (the pragma suppresses nothing, which is
        almost always a typo).
        """
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Violation(
                    path=path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    rule_id="REP000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        lines = source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            for code in _unknown_noqa_codes(text):
                self.warnings.append(
                    f"{path}:{lineno}: noqa names unknown rule {code}"
                )
        out: List[Violation] = []
        for rule in self.rules:
            for v in rule.check(tree, path):
                text = lines[v.line - 1] if 0 < v.line <= len(lines) else ""
                if not line_suppresses(text, v.rule_id):
                    out.append(v)
        out.sort()
        return out

    def check_file(self, path: str) -> List[Violation]:
        with open(path, "r", encoding="utf-8") as fh:
            return self.check_source(fh.read(), path)

    def check_paths(self, paths: Iterable[str]) -> List[Violation]:
        """Lint files and/or directory trees (``.py`` files only),
        deterministically ordered.  Resets :attr:`warnings` first."""
        self.warnings = []
        out: List[Violation] = []
        for path in iter_python_files(paths):
            out.extend(self.check_file(path))
        out.sort()
        return out


def analyze_paths(
    paths: Iterable[str], rules: Optional[Sequence[LintRule]] = None
) -> List[Violation]:
    """Convenience wrapper: lint ``paths`` with ``rules``."""
    return LintEngine(rules).check_paths(paths)


def format_violations(
    violations: Sequence[Violation], fmt: str = "text"
) -> str:
    """Render findings as line-per-violation text or a JSON document."""
    if fmt == "json":
        payload: Dict[str, object] = {
            "violations": [
                {
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "rule": v.rule_id,
                    "message": v.message,
                }
                for v in violations
            ],
            "count": len(violations),
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; use 'text' or 'json'")
    return "\n".join(v.render() for v in violations)

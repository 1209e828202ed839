"""Suppression pragmas for the static analyzer (``repro check``).

The rules (:mod:`repro.analysis.runner`) enforce the simulator's
determinism and DES-discipline contracts on every file. A place that
legitimately steps outside them — the experiment harness times *itself*
with the wall clock — carries an explicit, greppable exemption rather
than a rule carve-out, so every escape hatch is visible in the diff
that introduces it.

Three pragma forms, narrowest first:

``# simlint: disable=SIM101`` (trailing comment)
    Suppress the listed rule ids on this line only. Multiple ids are
    comma-separated; ``all`` suppresses every rule on the line. When the
    pragma is a *standalone* comment (no code on its line), it binds to
    the next line that holds code — so a pragma placed above a statement
    suppresses that statement instead of silently suppressing nothing. A
    standalone pragma with no following code is reported as malformed.

``@lint_exempt("SIM101", reason="...")``
    Suppress the listed rule ids for the whole decorated function. The
    ``reason`` keyword is mandatory — the linter reports a ``LINT000``
    finding for an exemption without one.

``# simlint: disable-file=SIM103`` (a comment line anywhere in the file)
    Suppress the listed rule ids for the whole file.

Pragmas naming an unknown rule id are themselves reported (``LINT000``)
so a typo cannot silently disable nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Tuple, TypeVar

#: Matches both the line form (``disable=``) and file form (``disable-file=``).
PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<ids>[A-Za-z0-9_,\- ]+)"
)

#: Wildcard accepted in a pragma id list: suppress every rule.
ALL_RULES_WILDCARD = "all"

#: Shape of a syntactically valid rule id (e.g. ``SIM101``, ``DES203``).
RULE_ID_RE = re.compile(r"^[A-Z]+[0-9]+$")

#: Attribute set on functions by :func:`lint_exempt`; the linter also
#: recognises the decorator syntactically, so exempt functions do not
#: need to be importable to be linted.
EXEMPT_ATTR = "__simlint_exempt__"

_F = TypeVar("_F", bound=Callable[..., object])


def lint_exempt(*rule_ids: str, reason: str) -> Callable[[_F], _F]:
    """Mark a function exempt from the given simlint rules.

    >>> @lint_exempt("SIM101", reason="harness self-timing")
    ... def elapsed(start: float) -> float:
    ...     import time
    ...     return time.time() - start
    >>> elapsed.__simlint_exempt__
    ('SIM101',)
    """
    if not rule_ids:
        raise ValueError("lint_exempt needs at least one rule id")
    for rule_id in rule_ids:
        if not RULE_ID_RE.match(rule_id):
            raise ValueError(f"malformed simlint rule id {rule_id!r}")
    if not reason.strip():
        raise ValueError("lint_exempt requires a non-empty reason")

    def decorate(fn: _F) -> _F:
        existing: Tuple[str, ...] = tuple(getattr(fn, EXEMPT_ATTR, ()))
        setattr(fn, EXEMPT_ATTR, existing + tuple(rule_ids))
        return fn

    return decorate


@dataclass
class FilePragmas:
    """Comment pragmas extracted from one source file."""

    #: Rule ids disabled for the whole file (may contain the wildcard).
    file_rules: Set[str] = field(default_factory=set)
    #: Rule ids disabled per line number (1-based; may contain the wildcard).
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``(line, message)`` for pragmas the parser could not make sense of.
    malformed: List[Tuple[int, str]] = field(default_factory=list)

    def suppresses(self, rule_id: str, line: int) -> bool:
        """True when a comment pragma silences ``rule_id`` at ``line``."""
        for rules in (self.file_rules, self.line_rules.get(line, set())):
            if rule_id in rules or ALL_RULES_WILDCARD in rules:
                return True
        return False


#: Token types that do not count as code on a line (for pragma binding).
_NON_CODE_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def _comments(source: str) -> List[Tuple[int, str]]:
    """``(line, comment text)`` for every real comment token.

    Tokenize-based so that ``simlint:`` appearing inside a string or a
    docstring is never mistaken for a pragma. Files that fail to
    tokenize yield no comments — they fail to parse too, and the linter
    reports that separately (LINT001).
    """
    found: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                found.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return found


def _code_lines(source: str) -> Set[int]:
    """Line numbers (1-based) on which actual code starts."""
    lines: Set[int] = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type not in _NON_CODE_TOKENS:
                lines.add(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return lines


def _binding_line(lineno: int, code_lines: Set[int]) -> "int | None":
    """The line a ``disable=`` pragma at ``lineno`` applies to.

    Trailing pragmas (code on the same line) bind to that line; a
    standalone comment pragma binds to the next code line. None when no
    code follows — the pragma suppresses nothing and is malformed.
    """
    if lineno in code_lines:
        return lineno
    following = [line for line in code_lines if line > lineno]
    return min(following) if following else None


def parse_pragmas(source: str) -> FilePragmas:
    """Extract ``# simlint:`` comment pragmas from source text.

    Ids that do not look like rule ids are recorded as malformed instead
    of being silently dropped.
    """
    pragmas = FilePragmas()
    code_lines = _code_lines(source)
    for lineno, comment in _comments(source):
        match = PRAGMA_RE.search(comment)
        if match is None:
            if "simlint:" in comment:
                pragmas.malformed.append(
                    (lineno, f"unparseable simlint pragma: {comment.strip()!r}")
                )
            continue
        ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
        good: Set[str] = set()
        for rule_id in ids:
            if rule_id == ALL_RULES_WILDCARD or RULE_ID_RE.match(rule_id):
                good.add(rule_id)
            else:
                pragmas.malformed.append(
                    (lineno, f"malformed rule id {rule_id!r} in simlint pragma")
                )
        if not good:
            continue
        if match.group("kind") == "disable-file":
            pragmas.file_rules |= good
        else:
            target = _binding_line(lineno, code_lines)
            if target is None:
                pragmas.malformed.append(
                    (
                        lineno,
                        "standalone simlint pragma binds to no statement "
                        "(no code follows it)",
                    )
                )
                continue
            pragmas.line_rules.setdefault(target, set()).update(good)
    return pragmas

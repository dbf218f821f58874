"""``# repro: noqa[...]`` suppression comments — line and file scoped.

Two forms, both requiring explicit rule codes so a suppression always
names what it waives (a bare blanket ``noqa`` hides future regressions
of *other* rules on the same line and is rejected):

* ``# repro: noqa[RPR601]`` — suppresses the listed codes on that line
  only. Multiple codes separate with commas: ``noqa[RPR601,RPR104]``.
* ``# repro: noqa-file[RPR202]`` — anywhere in the file, suppresses the
  listed codes for the whole file.

Policy (docs/static-analysis.md): a suppression must sit next to a
comment explaining *why* the invariant does not apply at that site —
the linter cannot check prose, but review can, and the explicit-code
requirement at least pins what is being waived.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.violation import Violation

__all__ = ["SuppressionIndex", "MALFORMED_CODE"]

#: Reported when a ``repro: noqa`` comment has no ``[CODES]`` list —
#: blanket suppressions are a policy violation themselves.
MALFORMED_CODE = "RPR002"

_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?"
    r"(?:\[(?P<codes>[A-Z0-9,\s]+)\])?",
)


def _comment_tokens(source: str) -> Iterator[Tuple[int, int, str]]:
    """``(line, col, text)`` of every real comment token in *source*.

    Tokenising (rather than scanning raw lines) means a docstring that
    merely *mentions* ``# repro: noqa[...]`` — as this module's own
    documentation does — is not mistaken for a suppression.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return


class SuppressionIndex:
    """Parsed suppression comments of one module."""

    def __init__(self, path: str, lines: List[str], source: str = "") -> None:
        self.path = path
        self.line_codes: Dict[int, Set[str]] = {}
        self.file_codes: Set[str] = set()
        self.malformed: List[Violation] = []
        text = source if source else "\n".join(lines) + "\n"
        for lineno, col, comment in _comment_tokens(text):
            for match in _NOQA.finditer(comment):
                raw = match.group("codes")
                codes = (
                    {c.strip() for c in raw.split(",") if c.strip()}
                    if raw
                    else set()
                )
                if not codes:
                    self.malformed.append(
                        Violation(
                            path=path,
                            line=lineno,
                            col=col + match.start() + 1,
                            code=MALFORMED_CODE,
                            message=(
                                "blanket 'repro: noqa' without rule codes; "
                                "name what you suppress: repro: noqa[RPRxxx]"
                            ),
                            source=comment.strip(),
                        )
                    )
                    continue
                if match.group("file"):
                    self.file_codes |= codes
                else:
                    self.line_codes.setdefault(lineno, set()).update(codes)

    def covers(self, code: str, line: int) -> bool:
        """Whether *code* is waived at *line* (module- or line-scoped).

        The flow analyser calls this directly: flow findings (and the
        primitive call sites that seed their chains) are waived by the
        same ``noqa``/``noqa-file`` comments as per-file findings, with
        ``noqa-file`` acting as the module-level suppression for
        generated or fixture-heavy modules.
        """
        if code in self.file_codes:
            return True
        return code in self.line_codes.get(line, set())

    def is_suppressed(self, violation: Violation) -> bool:
        """Whether *violation* is waived by a line or file suppression."""
        return self.covers(violation.code, violation.line)

#!/usr/bin/env python3
"""Orphan survey: public library items that nothing names.

An orphan is a `pub` `fn`, `const`, `struct`, `enum`, `trait`, `type`,
`static` or `mod` declared before the first `#[cfg(test)]` of a
`crates/*/src/**/*.rs` file whose name, as a whole word, appears
nowhere else in that file before its tests and in no other non-test
`.rs` file under `crates/*/src`, `examples/` or `perfbench/src`.
`//` lines and `pub use` statements are ignored throughout.

Also prints the library line count: non-blank, non-`//` lines before
the first `#[cfg(test)]` of every `crates/*/src/**/*.rs` file.

Usage, from the repository root:

    python3 scripts/orphan_survey.py          # list orphans, count lines
    python3 scripts/orphan_survey.py --check  # also exit 1 on an orphan
                                              # missing from ALLOWED, or
                                              # a stale ALLOWED entry
"""

import re
import sys
from pathlib import Path

# Orphans kept on purpose, with the reason.
ALLOWED = {
    "FleetMatrix::with_fleet_faults": "validates fleet faults built in code; "
    "the README's documented way in",
    "FleetCache::trace_count": "the engine and generated-catalog tests read "
    "how many series a run retained",
}

ITEM = re.compile(
    r"^(\s*)pub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*"
    r"(?:fn|const|struct|enum|trait|type|static|mod)\s+([A-Za-z_]\w*)"
)
IMPL = re.compile(r"^impl(?:<.*?>)?\s+(?:.*?\s+for\s+)?([A-Za-z_]\w*)")


def library_lines(path):
    """The file's non-blank, non-`//` lines before its tests, as
    (line number, text) pairs."""
    lines = []
    for number, text in enumerate(path.read_text().splitlines(), 1):
        stripped = text.strip()
        if stripped.startswith("#[cfg(test)]"):
            break
        if stripped and not stripped.startswith("//"):
            lines.append((number, text))
    return lines


def code_lines(path):
    """[`library_lines`] without `pub use` statements."""
    lines = []
    in_use = False
    for number, text in library_lines(path):
        if in_use or text.strip().startswith("pub use "):
            in_use = not text.rstrip().endswith(";")
            continue
        lines.append((number, text))
    return lines


def main():
    root = Path(__file__).resolve().parent.parent
    library = sorted(root.glob("crates/*/src/**/*.rs"))
    scope = library + sorted(root.glob("examples/**/*.rs"))
    scope += sorted(root.glob("perfbench/src/**/*.rs"))
    texts = {path: code_lines(path) for path in scope}

    line_count = sum(len(library_lines(path)) for path in library)
    orphans = []
    declared = set()
    for path in library:
        lines = texts[path]
        owner = None
        for number, text in lines:
            impl = IMPL.match(text)
            if impl:
                owner = impl.group(1)
            elif text.startswith("}"):
                owner = None
            item = ITEM.match(text)
            if not item:
                continue
            indent, name = item.groups()
            qualified = f"{owner}::{name}" if indent and owner else name
            declared.add(qualified)
            word = re.compile(r"\b%s\b" % re.escape(name))
            named = any(
                word.search(other)
                for other_number, other in lines
                if other_number != number
            ) or any(
                word.search(other)
                for other_path, other_lines in texts.items()
                if other_path != path
                for _, other in other_lines
            )
            if not named:
                orphans.append((path.relative_to(root), number, qualified))

    for path, number, qualified in orphans:
        kept = " (allowed)" if qualified in ALLOWED else ""
        print(f"{path}:{number}: {qualified}{kept}")
    print(f"{len(orphans)} orphan item(s); {line_count} library lines")
    unexpected = [o for o in orphans if o[2] not in ALLOWED]
    orphan_names = {o[2] for o in orphans}
    stale = []
    for name in sorted(ALLOWED):
        if name not in declared:
            stale.append(f"{name}: in ALLOWED but no longer declared")
        elif name not in orphan_names:
            stale.append(f"{name}: in ALLOWED but no longer an orphan")
    for line in stale:
        print(line)
    if "--check" in sys.argv[1:] and (unexpected or stale):
        if unexpected:
            print(f"{len(unexpected)} orphan item(s) not in ALLOWED", file=sys.stderr)
        if stale:
            print(f"{len(stale)} stale ALLOWED entry(ies)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Orphan survey: public library items that nothing names.

The survey reads every `pub` `fn`, `const`, `struct`, `enum`, `trait`,
`type`, `static` or `mod` declared before the first `#[cfg(test)]` of
a `crates/*/src/**/*.rs` file, and looks for a caller in the non-test
`.rs` files under `crates/*/src`, `examples/` and `perfbench/src`
(each cut at its first `#[cfg(test)]`). `//` lines and `pub use`
statements are ignored throughout. An item is an orphan when:

- free items (not inside an `impl`, `mod` excepted): its name, as a
  whole word, appears nowhere outside its own definition and the
  `impl` blocks of the type it names;
- associated consts and associated fns without a `self` receiver: no
  line says `Type::name`, and no line inside `Type`'s own `impl`
  blocks says `Self::name`, outside the item's own body;
- methods that take `self`, and `mod`s: its name, as a whole word,
  appears on no line but its own declaration (a `.name(` receiver
  cannot be resolved by name alone).

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
    "FleetCache::trace_count": "the engine and generated-catalog tests read "
    "how many series a run retained",
    "ScorecardShard::from_json_str": "the README's shard-merge recipe names it",
    "Scenario::from_json_str": "the README's way to parse a scenario; its "
    "round trip is the test that the scenario-JSON cache key is lossless",
    "EnergyStorage::new": "the constructor in the harvest_sim crate-doc example",
    "EvalProtocol::new": "the metrics property tests vary the ROI thresholds "
    "with it",
    "CoverageManifest::from_json": "the round-trip oracle for the "
    "coverage.json the supervisor writes",
}

ITEM = re.compile(
    r"^(\s*)pub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*"
    r"(fn|const|struct|enum|trait|type|static|mod)\s+([A-Za-z_]\w*)"
)
IMPL = re.compile(r"^impl(?:<.*?>)?\s+(?:.*?\s+for\s+)?([A-Za-z_]\w*)")
RECEIVER = re.compile(r"\(\s*(?:&\s*(?:'\w+\s+)?)?(?:mut\s+)?self\b")


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
    """[`library_lines`] without `pub use` statements, as (line number,
    text, impl owner) triples; the owner is the type whose `impl` block
    holds the line, or None."""
    lines = []
    in_use = False
    owner = None
    for number, text in library_lines(path):
        if in_use or text.strip().startswith("pub use "):
            in_use = not text.rstrip().endswith(";")
            continue
        impl = IMPL.match(text)
        if impl:
            owner = impl.group(1)
        lines.append((number, text, owner))
        if text.startswith("}"):
            owner = None
    return lines


def indent_of(text):
    return len(text) - len(text.lstrip())


def body_end(lines, start):
    """Index of the last line of the item declared at `lines[start]`:
    the first line from there, at the item's indent, that ends in `}`
    or `;`."""
    indent = indent_of(lines[start][1])
    for index in range(start, len(lines)):
        text = lines[index][1]
        if indent_of(text) == indent and text.rstrip().endswith(("}", ";")):
            return index
    return len(lines) - 1


def takes_self(lines, start, name):
    """Whether the fn declared at `lines[start]` has a `self` receiver."""
    signature = ""
    for _, text, _ in lines[start:]:
        signature += " " + text.strip()
        if "{" in text or text.rstrip().endswith(";"):
            break
    rest = signature[re.search(r"\bfn\s+%s\b" % re.escape(name), signature).end() :]
    rest = rest.lstrip()
    if rest.startswith("<"):
        depth = 0
        for offset, char in enumerate(rest):
            depth += {"<": 1, ">": -1}.get(char, 0)
            if depth == 0:
                rest = rest[offset + 1 :].lstrip()
                break
    return RECEIVER.match(rest) is not None


def main():
    root = Path(__file__).resolve().parent.parent
    library = sorted(root.glob("crates/*/src/**/*.rs"))
    scope = library + sorted(root.glob("examples/**/*.rs"))
    scope += sorted(root.glob("perfbench/src/**/*.rs"))
    texts = {path: code_lines(path) for path in scope}
    blobs = {path: "\n".join(text for _, text, _ in lines) for path, lines in texts.items()}

    def named(name, pattern, skip, keep=lambda owner: True):
        """Whether `pattern` matches a line outside `skip` (a file and
        an index range) whose impl owner passes `keep`."""
        skip_path, first, last = skip
        return any(
            pattern.search(text)
            for path, lines in texts.items()
            if name in blobs[path]
            for index, (_, text, owner) in enumerate(lines)
            if not (path == skip_path and first <= index <= last) and keep(owner)
        )

    line_count = sum(len(library_lines(path)) for path in library)
    orphans = []
    declared = set()
    for path in library:
        lines = texts[path]
        for index, (number, text, owner) in enumerate(lines):
            item = ITEM.match(text)
            if not item:
                continue
            indent, kind, name = item.groups()
            associated = bool(indent and owner)
            qualified = f"{owner}::{name}" if associated else name
            declared.add(qualified)
            word = re.compile(r"\b%s\b" % re.escape(name))
            body = (path, index, body_end(lines, index))
            if associated and (kind == "const" or not takes_self(lines, index, name)):
                path_to = r"\b%s\s*::\s*" + re.escape(name) + r"\b"
                called = named(name, re.compile(path_to % re.escape(owner)), body) or named(
                    name, re.compile(path_to % "Self"), body, lambda o: o == owner
                )
            elif not associated and kind != "mod":
                called = named(name, word, body, lambda o: o != name)
            else:
                called = named(name, word, (path, index, index))
            if not called:
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

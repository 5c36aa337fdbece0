#!/usr/bin/env python3
"""Checks the `[[path]]` / `[[path:line]]` source pointers in the docs.

The design docs point into the tree with `[[src/core/engine.h:290]]`-style
pointers. Nothing else keeps them honest: every edit above a pointed-to
line silently moves its target. This check fails when a pointer

  * names a file that does not exist (paths are relative to the repo root),
  * names a line past the end of that file, or
  * directly follows a backticked name (`` `ExplorationEngine`
    [[src/core/engine.h:290]] ``, optionally with an opening parenthesis
    or a comma between them) whose last `::` component does not appear on
    the pointed-to line.

Usage:
  check_doc_pointers.py <repo-root> [<doc.md>...]

With no documents named, every *.md under <repo-root>/docs plus
<repo-root>/README.md is checked. Exit status: 0 clean, 1 broken pointers,
2 usage error.
"""

import os
import re
import sys

POINTER = re.compile(r"\[\[([^\]:\s]+)(?::(\d+))?\]\]")
# A backticked name, then at most an opening parenthesis or a comma, then
# the pointer itself (whitespace, including a line break, may separate
# them). The name must look like a C++ identifier path.
NAMED_POINTER = re.compile(
    r"`([A-Za-z_][\w:]*)(?:\(\))?`\s*[(,]?\s*\[\[([^\]:\s]+):(\d+)\]\]")


def default_docs(root):
    docs = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                docs.append(os.path.join(docs_dir, name))
    return [d for d in docs if os.path.isfile(d)]


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def check_doc(root, doc, cache):
    """Returns a list of 'doc:line: message' problems for one document."""
    with open(doc, encoding="utf-8") as f:
        text = f.read()
    rel_doc = os.path.relpath(doc, root)
    problems = []

    def source_lines(path):
        if path not in cache:
            full = os.path.join(root, path)
            if os.path.isfile(full):
                with open(full, encoding="utf-8", errors="replace") as f:
                    cache[path] = f.read().splitlines()
            else:
                cache[path] = None
        return cache[path]

    for m in POINTER.finditer(text):
        if text[m.start() - 1:m.start()] == "`":
            continue  # a pointer shown as code, e.g. the syntax itself
        path, line = m.group(1), m.group(2)
        where = f"{rel_doc}:{line_of(text, m.start())}"
        lines = source_lines(path)
        if lines is None:
            problems.append(f"{where}: [[{path}]] names no file")
            continue
        if line is not None and not 1 <= int(line) <= len(lines):
            problems.append(
                f"{where}: [[{path}:{line}]] is past the end of the file "
                f"({len(lines)} lines)")

    for m in NAMED_POINTER.finditer(text):
        name, path, line = m.group(1), m.group(2), int(m.group(3))
        lines = source_lines(path)
        if lines is None or not 1 <= line <= len(lines):
            continue  # already reported above
        symbol = name.split("::")[-1]
        if symbol and symbol not in lines[line - 1]:
            where = f"{rel_doc}:{line_of(text, m.start(2))}"
            problems.append(
                f"{where}: `{name}` [[{path}:{line}]] points at a line "
                f"without '{symbol}': {lines[line - 1].strip()!r}")
    return problems


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = argv[1]
    docs = argv[2:] or default_docs(root)
    cache = {}
    problems = []
    for doc in docs:
        problems.extend(check_doc(root, doc, cache))
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} broken doc pointer(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

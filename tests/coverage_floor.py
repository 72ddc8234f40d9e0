"""Statement coverage floor: every statement of ``src/coarse_lab`` runs under tier-1.

Runs the tier-1 collection (``tests/`` and ``benchmarks/``, as CI does)
without the seeded fuzzer ``tests/test_fuzz.py`` in this process under a
``sys.settrace`` / ``threading.settrace`` line tracer, and fails unless every
statement of the package ran, save those on the allowlist below.  Leaving
the fuzzer out means every statement needs a named test, so a change to the
fuzzer's draws or the CLI corpus cannot fail the floor on unrelated code.
Only the standard library traces; pytest runs the tests.
Tests that run the package in a subprocess (the hash-seed replay, the
benchmark's refusal run) are not counted: their statements must also run
in-process to count.

A statement is an ``ast`` statement; a compound one (``if``, ``for``,
``def`` ...) is its header, and it ran when a line of its own source ran.
Docstrings, ``try:`` and ``global`` run no code of their own and are not
counted.  Each allowlist entry is a file and a statement's text with its
whitespace collapsed, so an edit that only shifts lines keeps it; it excuses
one unrun statement, so two unrun statements of the same text need two
entries.  The allowlist may only shrink: an entry that excuses no unrun
statement fails the floor until it is deleted.

    PYTHONPATH=src python tests/coverage_floor.py

Exit 0 when the floor holds, 1 when a statement is unrun or an entry is
stale, and pytest's own exit code when a test fails.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "coarse_lab")

# (file, statement text): statements no tier-1 test needs to run
ALLOWLIST = [
    # the module run as a script
    ("cli.py", "sys.exit(main())"),
]


def statements(path: str) -> list[tuple[int, int, str]]:
    """(first line, last line, text) of each counted statement of a module."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        # a compound statement is its header: the lines before its body
        last = body[0].lineno - 1 if body and body[0].lineno > node.lineno else node.end_lineno
        code = (line for line in lines[node.lineno - 1:last] if not line.lstrip().startswith("#"))
        text = " ".join(" ".join(code).split())
        out.append((first, last, text))
    return out


def _line_tracer(add):
    """A frame's local trace function that adds each line it runs."""

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


def run_traced(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process under the line tracer; (exit code, lines run per package file)."""
    if any(name == "coarse_lab" or name.startswith("coarse_lab.") for name in sys.modules):
        raise RuntimeError("coarse_lab was imported before the tracer started")
    ran: dict[str, set[int]] = {}
    local_tracers = {}
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            ran[name] = set()
            local_tracers[os.path.join(PACKAGE, name)] = _line_tracer(ran[name].add)

    def tracer(frame, event, arg):
        return local_tracers.get(frame.f_code.co_filename)

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    code, ran = run_traced(["-q", "-W", "error", "-p", "no:cacheprovider", "--ignore=tests/test_fuzz.py"])
    if code != 0:
        print(f"coverage floor: tier-1 failed (pytest exit {code})")
        return code
    allowed = Counter(ALLOWLIST)
    used: Counter = Counter()
    unrun = []
    total = 0
    for name in sorted(ran):
        for first, last, text in statements(os.path.join(PACKAGE, name)):
            total += 1
            if ran[name].isdisjoint(range(first, last + 1)):
                if used[name, text] < allowed[name, text]:
                    used[name, text] += 1
                else:
                    unrun.append(f"{name}:{first}: {text}")
    stale = [f"{name}: {text}" for key, n in allowed.items() if used[key] < n for name, text in [key]]
    for line in unrun:
        print(f"unrun statement, not on the allowlist: {line}")
    for line in stale:
        print(f"stale allowlist entry (every such statement runs, or none exists): {line}")
    print(f"coverage floor: {total} statements, {sum(used.values())} unrun on the allowlist, "
          f"{len(unrun)} unrun off it, {len(stale)} stale entries")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fixture harness for tools/ofar_lint.

Each subdirectory is a miniature repository (a `src/` tree) seeded with
known-good and known-bad code. Offending lines carry an
`// ... expect: <rule>` marker; the harness runs the analyzer over every
fixture and requires the finding set to equal the marker set exactly —
a missed violation AND a false positive both fail the run.

Run:  python3 tests/lint_fixtures/run_fixtures.py [case ...]
Exit: 0 when every fixture matches.
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools"))

from ofar_lint.cli import collect_files, load_program  # noqa: E402
from ofar_lint.rules import analyze  # noqa: E402

EXPECT_RE = re.compile(r"expect:\s*(?P<rules>[\w-]+(?:\s*,\s*[\w-]+)*)")


def run_case(case):
    root = os.path.join(HERE, case)
    files = collect_files(root)
    if not files:
        return [f"{case}: no sources under {root}/src"]
    expected = set()
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                m = EXPECT_RE.search(line)
                if m:
                    for rule in m.group("rules").split(","):
                        expected.add((rel, lineno, rule.strip()))
    program = load_program(root, files)
    findings = analyze(program)
    got = {(f.file, f.line, f.rule) for f in findings}
    errors = []
    for rel, lineno, rule in sorted(expected - got):
        errors.append(f"{case}: MISSED  {rel}:{lineno} [{rule}]")
    for rel, lineno, rule in sorted(got - expected):
        errors.append(f"{case}: SPURIOUS {rel}:{lineno} [{rule}]")
    return errors


def main(argv):
    cases = argv or sorted(
        d for d in os.listdir(HERE)
        if os.path.isdir(os.path.join(HERE, d, "src")))
    if not cases:
        print("run_fixtures: no fixture cases found", file=sys.stderr)
        return 2
    failures = 0
    for case in cases:
        errors = run_case(case)
        if errors:
            failures += 1
            for e in errors:
                print(e)
        else:
            print(f"{case}: OK")
    if failures:
        print(f"\nrun_fixtures: {failures}/{len(cases)} fixtures failed")
        return 1
    print(f"\nrun_fixtures: all {len(cases)} fixtures passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

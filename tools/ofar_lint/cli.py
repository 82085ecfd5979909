"""Command-line driver for ofar_lint.

Exit status 0 when no findings, 1 when findings remain, 2 when the
repository root or its sources cannot be found.
"""

import argparse
import os
import sys

from .frontend_builtin import load_program
from .rules import analyze

SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc")


def _find_root(start):
    d = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(d, "src")) and \
                os.path.exists(os.path.join(d, "CMakeLists.txt")):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return None
        d = parent


def collect_files(root):
    """Repo-relative paths of every C++ source under root/src, sorted."""
    out = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "src")):
        for fn in filenames:
            if fn.endswith(SOURCE_EXTS):
                out.append(os.path.relpath(os.path.join(dirpath, fn), root))
    out.sort()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="ofar_lint",
        description="Phase-discipline and determinism analyzer for the "
                    "OFAR cycle kernel (DESIGN.md §10/§12).")
    ap.add_argument("--root", default=None,
                    help="repository root (default: auto-detect upward "
                         "from cwd)")
    args = ap.parse_args(argv)

    root = args.root or _find_root(os.getcwd())
    if root is None:
        print("ofar_lint: cannot locate repository root (need src/ + "
              "CMakeLists.txt); pass --root", file=sys.stderr)
        return 2

    files = collect_files(root)
    if not files:
        print(f"ofar_lint: no sources under {root}/src", file=sys.stderr)
        return 2

    program = load_program(root, files)
    findings = analyze(program)
    for f in findings:
        print(f.format())
    if findings:
        print(f"\nofar_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"ofar_lint: OK — {len(files)} files, "
          f"{sum(len(v) for v in program.functions.values())} functions "
          "analyzed")
    return 0

#!/usr/bin/env python3
"""Compare this checkout with a git revision: CLI outputs, code size and public API.

Exports REV with ``git archive`` into a temporary directory, runs this
checkout's ``tools/cli_fingerprint.py`` on both trees (a copy placed in the
export, so both run one command set), and prints the unified diff of the two
printouts.  Then prints, for every module of ``src/flexboom`` in either tree,
its total and code-only source lines; a code-only line is one that is not
blank, not a comment and not part of a docstring.  Last it prints the unified
diff of the two trees' public surfaces: one line per name in
``flexboom.__all__``, giving its kind and its ``inspect.signature`` (a
dataclass's lists its fields; a value has its repr instead), each read in a
subprocess that imports the package from that tree's ``src``.  Exits 1 when
the fingerprints differ, else 0, whatever the surfaces show.  A failure
prints one ``error:`` line: exit 2 when REV is not a revision or this
checkout has no git repository, exit 1 (with the last line of its stderr)
when a tree's fingerprint or surface script fails.

    python tools/compare_trees.py HEAD~1

The working tree is compared as it is on disk, uncommitted changes included.
"""

from __future__ import annotations

import ast
import difflib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = Path("tools") / "cli_fingerprint.py"
PACKAGE = Path("src") / "flexboom"


class Failure(Exception):
    """A run that ends with one ``error:`` line and exit ``status``."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def tree_id(rev: str) -> str:
    """The id of ``rev``'s tree in this checkout's repository."""
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                         capture_output=True, text=True)
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        raise Failure(f"{ROOT} is not a git checkout", 2)
    tree = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{tree}}"],
                          cwd=ROOT, capture_output=True, text=True)
    if tree.returncode != 0:
        raise Failure(f"{rev!r} is not a revision of {ROOT}", 2)
    return tree.stdout.strip()


# Prints one line per public name of the package found on the path given as argv[1].
SURFACE = """
import dataclasses, inspect, sys
sys.path.insert(0, sys.argv[1])
import flexboom
for name in flexboom.__all__:
    obj = getattr(flexboom, name)
    if inspect.isclass(obj):
        kind = "dataclass" if dataclasses.is_dataclass(obj) else "class"
    else:
        kind = type(obj).__name__
    try:
        shape = str(inspect.signature(obj))
    except (TypeError, ValueError):
        shape = repr(obj)
    print(f"{name}  {kind}  {shape}")
"""


def printout(tree: Path, label: str, what: str, argv: list[str]) -> list[str]:
    """Lines a Python script (``argv``) prints when run in ``tree``, named ``label``;
    ``what`` names the script in the error a failure raises."""
    result = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    if result.returncode != 0:
        stderr = result.stderr.strip().splitlines() or ["no output"]
        raise Failure(f"{what} of {label} failed: {stderr[-1]}", 1)
    return result.stdout.splitlines(keepends=True)


def fingerprint(tree: Path, label: str) -> list[str]:
    """The printout of the fingerprint script run on ``tree``, named ``label``."""
    return printout(tree, label, "fingerprint", [str(tree / FINGERPRINT)])


def surface(tree: Path, label: str) -> list[str]:
    """The public surface of ``tree``'s package: one line per name, see ``SURFACE``."""
    return printout(tree, label, "surface", ["-c", SURFACE, str(tree / "src")])


def line_counts(path: Path) -> tuple[int, int]:
    """(total, code-only) lines of one Python source file."""
    text = path.read_text()
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)
    return len(lines), code


def source_table(trees: dict[str, Path]) -> list[str]:
    """One row per module: total and code-only lines in each tree, then the sums."""
    counts = {label: {path.name: line_counts(path)
                      for path in sorted((tree / PACKAGE).glob("*.py"))}
              for label, tree in trees.items()}
    modules = sorted(set().union(*counts.values()))
    rows = [f"{'module':<20}" + "".join(f"{label + ' total':>16}{label + ' code':>16}"
                                        for label in trees)]
    for name in [*modules, "all"]:
        cells = []
        for label in trees:
            if name == "all":
                total, code = map(sum, zip(*counts[label].values()))
            elif name in counts[label]:
                total, code = counts[label][name]
            else:
                total = code = "-"
            cells.append(f"{total:>16}{code:>16}")
        rows.append(f"{name:<20}" + "".join(cells))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: compare_trees.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    try:
        tree = tree_id(rev)
        with tempfile.TemporaryDirectory() as tmp:
            other = Path(tmp)
            archive = subprocess.run(["git", "archive", tree], cwd=ROOT, capture_output=True,
                                     check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(other)], input=archive, check=True)
            (other / FINGERPRINT).parent.mkdir(exist_ok=True)
            shutil.copyfile(ROOT / FINGERPRINT, other / FINGERPRINT)
            diff = list(difflib.unified_diff(fingerprint(other, rev),
                                             fingerprint(ROOT, "working tree"),
                                             fromfile=rev, tofile="working tree"))
            table = source_table({rev: other, "tree": ROOT})
            api = list(difflib.unified_diff(surface(other, rev), surface(ROOT, "working tree"),
                                            fromfile=rev, tofile="working tree"))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    sys.stdout.writelines(diff)
    print("fingerprints differ" if diff else "fingerprints identical")
    print("\n".join(table))
    sys.stdout.writelines(api)
    print("surfaces differ" if api else "surfaces identical")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

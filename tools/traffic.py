"""List the statements of ``src/robls`` that no command reaches.

Runs the four ``robls`` commands in this process at small sizes, in a
temporary directory, under a line tracer (``sys.settrace``):

- ``pose-avg-bench`` with 2 trials per outlier level, from a ``--config``
  file that lists three of the levels,
- ``icp-bench`` with 1 trial per scene kind and ``--trace-dir``,
- ``weights`` for every loss kind at its defaults, ``--n-e 3 --tau 10``,
  on Chi(3) norms with a few outliers and on mostly-outlier norms, where
  ``adaptive_mb`` ends at the ``-inf`` alpha sentinel,
- ``gen-scene`` for every scene kind.

Then it prints, per module, the statements that no run reached, and the
``raise`` statements among them on a line of their own: those are input
checks and error paths, which a command reaches only on bad input.  A
statement counts as reached when the tracer saw any line it owns: its own
lines, less those of the statements nested in it.  Docstrings and
``global`` or ``nonlocal`` declarations are not statements that run.  Every
run is in this process, so the worker pool of ``--threads`` above 1 is never
reached.

It also lists every function (``def``, nested closures included) none of
whose statements a run reached.  With ``--check`` it exits 1 if there is
any, so a function that no command calls fails the test suite
(``tests/test_package.py`` runs it in a fresh process: caches warmed by other
tests in the same process would hide function bodies from the tracer).

Standard library only.  Run it from anywhere:

    python3 tools/traffic.py [--check]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import math
import random
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robls"


def _statements(path: Path) -> dict[int, ast.stmt]:
    """Each line of ``path`` mapped to the innermost statement that owns it."""
    owner: dict[int, ast.stmt] = {}
    tree = ast.parse(path.read_text(), str(path))
    _walk(tree.body, owner)
    return owner


def _walk(body, owner: dict[int, ast.stmt]) -> None:
    """Give each statement of ``body`` its lines, then let nested ones take theirs."""
    for i, node in enumerate(body):
        docstring = (i == 0 and isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
        if docstring or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for line in range(first, node.end_lineno + 1):
            owner[line] = node
        for field in ("body", "orelse", "finalbody"):
            _walk(getattr(node, field, []), owner)
        for clause in getattr(node, "handlers", []) + getattr(node, "cases", []):
            _walk(clause.body, owner)


def _run_commands(workdir: Path) -> None:
    """The four commands at small sizes, their output kept in ``workdir``."""
    from robls.cli import main
    from robls.scenes import SCENE_KINDS
    from robls.weighting import RLF_KINDS

    rng = random.Random(0)
    clean = [math.hypot(*(rng.gauss(0.0, 1.0) for _ in range(3))) for _ in range(60)]
    clean += [rng.uniform(0.0, 10.0) for _ in range(15)]
    sentinel = [abs(rng.gauss(0.0, 1.0)) for _ in range(60)]
    sentinel += [rng.uniform(0.0, 10.0) for _ in range(240)]
    for name, norms in (("clean", clean), ("sentinel", sentinel)):
        (workdir / f"{name}.txt").write_text("\n".join(map(repr, norms)))
    clean, sentinel = workdir / "clean.txt", workdir / "sentinel.txt"

    config = workdir / "pose.json"
    config.write_text(json.dumps({"outlier_levels": [0.0, 0.4, 0.8]}))
    runs = [
        ["pose-avg-bench", "--config", str(config), "--trials", "2", "--threads", "1",
         "--out-dir", str(workdir / "pose")],
        ["icp-bench", "--trials", "1", "--threads", "1", "--out-dir", str(workdir / "icp"),
         "--trace-dir", str(workdir / "icp" / "traces")],
    ]
    for kind in RLF_KINDS:
        runs.append(["weights", "--rlf", kind, "--input", str(clean)])
        runs.append(["weights", "--rlf", kind, "--input", str(sentinel),
                     "--out", str(workdir / f"{kind}.json")])
    for kind in SCENE_KINDS:
        runs.append(["gen-scene", "--kind", kind, "--seed", "3", "--out-dir", str(workdir / kind)])
    for argv in runs:
        print("running robls", " ".join(argv[:3]), "...", file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)


def _ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def _unreached_functions(statements: dict[int, ast.stmt], reached: set[int]) -> list[ast.stmt]:
    """The functions among ``statements`` with no reached statement in their body."""
    out = []
    for node in statements.values():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = {id(n) for n in ast.walk(node) if n is not node and id(n) in statements}
            if not body & reached:
                out.append(node)
    return sorted(out, key=lambda node: node.lineno)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if some function has no reached statement")
    args = parser.parse_args(argv)
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in seen else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _run_commands(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed_total = 0
    dead = []
    for name, path in files.items():
        owner = _statements(path)
        statements = {id(node): node for node in owner.values()}
        reached = {id(owner[line]) for line in seen[name] if line in owner}
        missed = sorted((node for key, node in statements.items() if key not in reached),
                        key=lambda node: node.lineno)
        total += len(statements)
        missed_total += len(missed)
        dead += [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                 for node in _unreached_functions(statements, reached)]
        if not missed:
            continue
        raises = [node.lineno for node in missed if isinstance(node, ast.Raise)]
        others = [node.lineno for node in missed if not isinstance(node, ast.Raise)]
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(statements)} statements not reached")
        if others:
            print(f"  statements: {_ranges(others)}")
        if raises:
            print(f"  raise:      {_ranges(raises)}")
    print(f"{missed_total} of {total} statements not reached")
    for line in dead:
        print(f"function not reached: {line}")
    print(f"{len(dead)} functions not reached")
    return 1 if args.check and dead else 0


if __name__ == "__main__":
    sys.exit(main())

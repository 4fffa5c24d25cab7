"""Self-check suite tests.

The suites are themselves verification code, so the tests here focus on
the meta-properties: everything passes on a healthy build, and the
deliberate bias-sign fault is caught by the equivalence suite while
leaving the autodiff suite green (the fault is in the math, not the
gradient plumbing, and the checks must tell those apart). One more check
reads the package source: no module imports a name it never uses, and
every private module-level function, class or constant is read by some
module.
"""

import ast
from pathlib import Path

from winvit.attention import set_fault_bias_sign
from winvit.checks import (
    SUITES,
    run_suites,
    suite_equivalence,
    suite_roundtrip,
)


class TestSuites:
    def test_all_suites_pass(self):
        ok, results = run_suites()
        failures = [(n, d) for n, passed, d in results if not passed]
        assert ok, f"failing suites: {failures}"
        assert [n for n, _, _ in results] == [n for n, _ in SUITES]

    def test_roundtrip_covers_many_geometries(self):
        passed, detail = suite_roundtrip()
        assert passed
        # the detail string reports how many (H, W, M) cases ran
        assert any(int(tok) > 300 for tok in detail.split() if tok.isdigit())

    def test_bias_sign_fault_is_caught_by_equivalence(self):
        set_fault_bias_sign(True)
        try:
            ok, results = run_suites()
        finally:
            set_fault_bias_sign(False)
        assert not ok
        by_name = {n: p for n, p, _ in results}
        assert by_name["equivalence"] is False, "equivalence suite missed the sign fault"
        assert by_name["gradients"] is True, "gradient suite should not trip on a consistent fault"
        # back to healthy after clearing the switch
        passed, _ = suite_equivalence()
        assert passed


SRC = Path(__file__).resolve().parent.parent / "src" / "winvit"


def _module_level_names(tree):
    """Names a module binds at its top level: functions, classes and
    assigned constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_no_module_imports_an_unused_name():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    unused, read_anywhere, private = {}, set(), {}
    for name, tree in trees.items():
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        # every name read, annotations and f-string fields included
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        # __init__.py is skipped: its imports are the package's re-exports
        if name != "__init__.py" and imported - read:
            unused[name] = sorted(imported - read)
        # another module reads a private name as an attribute
        # (``tc._conv_forward``) or imports it by name
        read_anywhere |= read | {n.attr for n in ast.walk(tree)
                                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        read_anywhere |= {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names}
        private[name] = {n for n in _module_level_names(tree) if n.startswith("_") and not n.startswith("__")}
    assert not unused, f"imported but never used: {unused}"
    dead = {name: sorted(names - read_anywhere) for name, names in private.items() if names - read_anywhere}
    assert not dead, f"private module-level names that no module reads: {dead}"

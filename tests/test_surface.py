"""Every public name of the library has a caller outside the tests, only
the run driver steps sessions, and no module imports SciPy or
multiprocessing on import.

A public top-level function or class of src/hallmhd, or a public method
of a public class, counts as used when some code in src/hallmhd, bench/
or tools/ names it: an `ast.Name` or the attribute of an `ast.Attribute`,
outside the name's own definition.  Comments, docstrings, `__all__`
strings and import lines do not count.  A name only the tests call
belongs in the tests (see tests/oracle3d.py)."""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "hallmhd"
USERS = (LIBRARY, ROOT / "bench", ROOT / "tools")


def _public(name: str) -> bool:
    return not name.startswith("_")


@functools.cache
def _parse(path: Path) -> ast.Module:
    """One tree per file, so a definition found in it is the same node
    that encloses the uses inside it."""
    return ast.parse(path.read_text(), filename=str(path))


def _definitions() -> list[tuple[str, str, ast.AST]]:
    """(where, name, node) of each public top-level function and class,
    and each public method of a public class."""
    out = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((path.stem, node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{path.stem}.{node.name}", item.name, item) for item in node.body
                           if isinstance(item, ast.FunctionDef) and _public(item.name))
    return out


def _uses(trees) -> list[tuple[str, tuple]]:
    """(name, enclosing definitions) for every Name and Attribute in the
    given module trees."""
    out = []

    def walk(node: ast.AST, enclosing: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing + (node,)
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    for tree in trees:
        walk(tree, ())
    return out


def _callers() -> list[ast.Module]:
    """The parsed code that may call the library."""
    return [_parse(path) for root in USERS for path in sorted(root.rglob("*.py"))]


def _used(name: str, node: ast.AST, uses) -> bool:
    return any(used == name and node not in enclosing for used, enclosing in uses)


def test_every_public_name_has_a_caller_outside_the_tests():
    uses = _uses(_callers())
    unused = [f"{where}.{name}" for where, name, node in _definitions()
              if not _used(name, node, uses)]
    assert not unused, f"public names that only tests use: {unused}"


def test_a_recursive_call_is_not_a_use():
    """A call from another function counts, through a Name or an
    Attribute; a call from the name's own body does not."""
    tree = ast.parse("def f(x):\n    return f(x - 1)\n")
    f_node = tree.body[0]
    assert not _used("f", f_node, _uses([tree]))
    assert _used("f", f_node, _uses([tree, ast.parse("f(1)")]))
    assert _used("f", f_node, _uses([tree, ast.parse("m.f")]))
    assert not _used("f", f_node, _uses([tree, ast.parse('"f"  # f')]))


def test_only_the_run_driver_steps_sessions():
    """Outside runner.py no library code names `.advance`, except
    solver3d.step (one step) and StepSession.advance, which hands its
    step to the stepper's: runner is the one run driver."""
    allowed = {"solver3d": {"step", "StepSession.advance"}}
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        if path.stem == "runner":
            continue
        for name, enclosing in _uses([_parse(path)]):
            where = ".".join(node.name for node in enclosing)
            if name == "advance" and where not in allowed.get(path.stem, ()):
                found.append(f"{path.stem}.{where or '<module>'}")
    assert not found, f"code outside runner that steps sessions: {found}"


def _imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(imported module, dotted enclosing definitions) of every absolute
    import in a module tree; the second is '' at module level."""
    out = []

    def walk(node: ast.AST, where: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if isinstance(node, ast.Import):
            out.extend((alias.name, ".".join(where)) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.module, ".".join(where)))
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(tree, ())
    return out


def _imported_outside(top: str, allowed: set[tuple[str, str]]) -> list[str]:
    """Imports of package `top` in the library outside the (module,
    enclosing definition) places `allowed`."""
    return [f"{path.stem}.{where or '<module>'} imports {module}"
            for path in sorted(LIBRARY.glob("*.py"))
            for module, where in _imports(_parse(path))
            if module.split(".")[0] == top and (path.stem, where) not in allowed]


def test_scipy_is_imported_only_by_the_full_lattice_transforms():
    """No library module imports scipy at module level, so the 3D run path
    (the stepper transforms with numpy.fft) loads no SciPy module.  Only
    fields.to_spectral and to_physical import scipy.fft, inside the
    function, on their first call, and the 2.5D monitor before it forks
    its certificate worker, so that the child inherits it."""
    allowed = {("fields", "to_spectral"), ("fields", "to_physical"),
               ("runner", "_Monitor25D.__init__")}
    found = _imported_outside("scipy", allowed)
    assert not found, f"scipy imports off the full-lattice transforms: {found}"


def test_multiprocessing_is_imported_only_by_the_2p5d_monitor():
    """No library module imports multiprocessing at module level: only
    the 2.5D monitor does, inside the function, when it may fork its
    certificate worker."""
    found = _imported_outside("multiprocessing", {("runner", "_Monitor25D.__init__")})
    assert not found, f"multiprocessing imports off the 2.5D monitor: {found}"

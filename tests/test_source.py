"""Source-level rules that hold for every module of the package."""

import ast
from pathlib import Path

import sumrank


def test_no_bare_asserts_in_the_package():
    # python -O strips assert statements; guaranteed identities raise
    # InvariantViolation instead
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare asserts: {found}"


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _raise_sites(name):
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and node.exc is not None
            and _raised_name(node) == name
        ]
    return found


def test_no_bare_value_errors_in_the_package():
    # every error a caller can trigger is a UsageError subclass, so the CLI
    # maps it onto exit code 1
    found = _raise_sites("ValueError")
    assert not found, f"raise ValueError: {found}"


def test_no_assertion_errors_raised_in_the_package():
    # an unreachable branch or failed identity raises InvariantViolation,
    # which the CLI maps onto exit code 2 instead of a traceback
    found = _raise_sites("AssertionError")
    assert not found, f"raise AssertionError: {found}"


def test_one_elimination_path():
    # every row reduction runs on a row kernel: only matfq names _echelon,
    # only _ListRows.echelon calls it, and no module keeps a list-row update
    # (_clear) for a second elimination beside it
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "matfq.py":
            kernel = next(c for c in tree.body if getattr(c, "name", "") == "_ListRows")
            method = next(f for f in kernel.body if getattr(f, "name", "") == "echelon")
            allowed = {id(node) for node in ast.walk(method)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.alias, ast.FunctionDef)):
                name = node.name
            else:
                continue
            # matfq defines _echelon once; that is no use of it
            defined = isinstance(node, ast.FunctionDef) and path.name == "matfq.py"
            if name == "_clear" or name == "_echelon" and not defined and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"list-row elimination outside _ListRows: {found}"


def test_no_entrywise_product_path():
    # every matrix product, pairing, sum and scaling runs on the row kernels
    # (matfq._products): no module defines or imports a dot product or vector
    # sum that goes entry by entry beside them
    banned = {"_dot", "vec_add"}
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = {node.id}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names & banned]
    assert not found, f"entrywise product path: {found}"


def test_no_unread_imports_in_the_package():
    # a name imported and never read is left behind by a deleted caller; the
    # bench-only imports that bench/selftest.py requires are marked noqa: F401
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"imported and never read: {found}"


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect and ast, milliseconds in every CLI process;
    # the records use errors._record instead
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m == "dataclasses"]
    assert not found, f"dataclasses imported: {found}"


def test_no_nested_function_calls_itself():
    # a nested function that calls itself holds itself in its closure: a
    # reference cycle left for the collector, and one stack frame per level,
    # so a walk as deep as a payload's block count raised RecursionError;
    # walks are loops, and a recursion of small depth is a module function
    found = []
    for path in sorted(Path(sumrank.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                found += [
                    f"{path.name}:{node.lineno} {inner.name}"
                    for node in ast.walk(inner)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name
                ]
    assert not found, f"nested functions that call themselves: {found}"

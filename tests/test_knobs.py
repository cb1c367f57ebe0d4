"""Every defaulted parameter of a function in `atomarray` is set by some
caller: a default that no call site in the repository overrides is a
constant, and belongs in the function body."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "tests", "benchmarks", "perfbench")


def defaulted_parameters():
    """(module, function, parameter, position) of every parameter with a
    default; position counts from the first argument a caller passes (after
    self or cls) and is None for keyword-only parameters.  A constructor
    is named after its class, as its callers name it."""
    for path in sorted((ROOT / "src" / "atomarray").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {f: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in f.decorator_list)
            bound = f in owner and not static
            name = owner[f].name if f.name == "__init__" else f.name
            args = f.args.posonlyargs + f.args.args
            first = len(args) - len(f.args.defaults)
            for i in range(first, len(args)):
                yield path.stem, name, args[i].arg, i - bound
            for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if d is not None:
                    yield path.stem, name, a.arg, None


def calls_by_name():
    calls = {}
    for folder in CALLERS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else (
                        getattr(f, "id", None))
                    calls.setdefault(name, []).append(node)
    return calls


def test_every_default_is_overridden_by_a_caller():
    calls = calls_by_name()
    unset = []
    for module, function, param, position in defaulted_parameters():
        if not any(any(k.arg == param for k in c.keywords)
                   or (position is not None and len(c.args) > position
                       and not any(isinstance(a, ast.Starred)
                                   for a in c.args[:position + 1]))
                   for c in calls.get(function, [])):
            unset.append(f"{module}.{function}({param}=...)")
    assert not unset, ("defaults that no caller sets; make them constants: "
                       + ", ".join(unset))

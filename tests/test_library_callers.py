"""Guards against library code and options that nothing uses.

Every public top-level function or class of ``src/pshjb`` must be referenced
by name or attribute (or imported by name) from other library code, and
every public method or property of a public class by attribute: a method
is reached only through an attribute, so a local variable of the same
spelling does not count for it.  Docstrings are strings, not references,
and ``__init__.py`` only re-exports modules, so neither counts.

Every defaulted parameter of a public function or method must be passed, by
keyword or by position, by some call in ``src``, ``tests`` or ``bench``.
Calls are matched by function name alone.

Every parameter of every function or lambda of ``src/pshjb`` must be read
in its body.

In ``config.py`` only ``_convert`` turns a YAML value into a number or an
array.

The control problem is one record, ``hjb.CostSpec``: only its
``ell0_integral`` calls ``ell0``, and ``SolverConfig`` keeps no horizon of
its own.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pshjb"
CALLER_DIRS = ("src", "tests", "bench")

# test oracles, kept without a library caller: the transition semigroup and
# Cameron-Martin density by quadrature, and the exact Picard map, a sweep
# with nothing settled, that the tests hold the solve's sweeps to
ALLOWED = {
    "semigroup_apply",
    "cameron_martin_density",
    "UpsilonOperator.apply",
}


def references(node, attributes_only=False) -> Counter:
    """Spellings that ``node`` refers to by attribute and, unless
    ``attributes_only``, by name or import."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.ImportFrom):
            refs.update(alias.name for alias in n.names)
    return refs


def public_definitions(tree):
    """(qualified name, node) of every public top-level function or class
    and of every public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_name_has_a_library_caller():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    total = {
        only: sum((references(t, only) for name, t in trees.items()
                   if name != "__init__.py"), Counter())
        for only in (False, True)
    }
    defined = {qual for tree in trees.values() for qual, _ in public_definitions(tree)}
    assert ALLOWED <= defined, "stale allowlist entries: " + ", ".join(ALLOWED - defined)
    unused = [
        f"{name}:{qual}"
        for name, tree in trees.items()
        for qual, node in public_definitions(tree)
        if qual not in ALLOWED
        and total["." in qual][node.name] - references(node, "." in qual)[node.name] <= 0
    ]
    assert unused == [], "public code without a library caller: " + ", ".join(unused)


def defaulted_parameters(tree):
    """(function name, parameter, position or None, is method) of every
    defaulted parameter of a public top-level function or public method."""
    owners = [(node, False) for node in tree.body]
    owners += [(m, True) for node in tree.body if isinstance(node, ast.ClassDef)
               and not node.name.startswith("_") for m in node.body]
    for fn, is_method in owners:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        pos = fn.args.posonlyargs + fn.args.args
        for i, arg in enumerate(pos[len(pos) - len(fn.args.defaults):],
                                len(pos) - len(fn.args.defaults)):
            yield fn.name, arg.arg, i, is_method
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None, is_method


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no call overrides is a constant dressed as an option.
    A call through ``*args`` or ``**kwargs`` may pass anything, and a
    function referenced without a call (a builder that config fills from
    YAML by keyword) may be called with anything."""
    trees = [ast.parse(p.read_text()) for d in CALLER_DIRS
             for p in sorted((ROOT / d).rglob("*.py"))]
    passed, open_ended, referenced = set(), set(), set()
    for tree in trees:
        called = set()
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            called.add(id(n.func))
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if any(k.arg is None for k in n.keywords) or any(
                    isinstance(a, ast.Starred) for a in n.args):
                open_ended.add(name)
            passed.update((name, k.arg) for k in n.keywords)
            passed.update((name, i) for i in range(len(n.args)))
        # a name the file also binds is a variable there, not a reference
        bound = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        bound.update(n.arg for n in ast.walk(tree) if isinstance(n, ast.arg))
        referenced.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                          and isinstance(n.ctx, ast.Load) and id(n) not in called)
        referenced.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                          and isinstance(n.ctx, ast.Load) and id(n) not in called
                          and n.id not in bound)
    unused = [
        f"{name}({param})"
        for tree in (ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")))
        for name, param, pos, is_method in defaulted_parameters(tree)
        if name not in open_ended and name not in referenced
        and (name, param) not in passed
        and (pos is None or (name, pos - is_method) not in passed)
    ]
    assert unused == [], "defaulted parameters that no call passes: " + ", ".join(unused)


def unread_parameters(tree):
    """(function name, parameter) of every parameter, but ``self`` and
    ``cls``, that its function's body never reads; a stub whose body raises
    NotImplementedError reads none by design."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn, ast.FunctionDef) else [fn.body]
        if any(isinstance(n, ast.Raise) and "NotImplementedError" in ast.unparse(n)
               for n in body):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        yield from ((name, a.arg) for a in params
                    if a.arg not in ("self", "cls") and a.arg not in read)


def test_every_parameter_is_read():
    """A parameter that its function never reads is an input that changes
    nothing, and every caller passes it for nothing."""
    unread = [f"{path.name}:{name}({param})" for path in sorted(SRC.glob("*.py"))
              for name, param in unread_parameters(ast.parse(path.read_text()))]
    assert unread == [], "parameters that their function never reads: " + ", ".join(unread)


def test_config_converts_in_one_place():
    """Every section is read against a signature, so a ``float``, ``int``,
    ``np.asarray`` or ``np.array`` call in config.py outside ``_convert``
    is a second, hand-written reader that skips its checks."""
    tree = ast.parse((SRC / "config.py").read_text())
    inside = {id(n) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_convert"
              for n in ast.walk(fn)}
    assert inside, "config._convert is gone"
    calls = [f"line {n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
             if isinstance(n, ast.Call) and id(n) not in inside
             and ast.unparse(n.func) in ("float", "int", "np.asarray", "np.array")]
    assert calls == [], "conversions outside config._convert: " + ", ".join(calls)


def test_one_record_of_the_problem():
    """The solver and the simulation read the horizon and integrate ell0
    through ``CostSpec``: a second integration rule or a second horizon
    lets the two disagree (a table ell0 from t0 > 0 once read 0.5 apart)."""
    callers = [
        f"{path.name}:{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "ell0"
                for n in ast.walk(fn))
    ]
    assert callers == ["hjb.py:ell0_integral"], "calls of ell0: " + ", ".join(callers)
    tree = ast.parse((SRC / "hjb.py").read_text())
    fields = [n.target.id for c in tree.body
              if isinstance(c, ast.ClassDef) and c.name == "SolverConfig"
              for n in c.body if isinstance(n, ast.AnnAssign)]
    assert fields and "horizon" not in fields

"""Guards against library code and options that nothing uses.

Every public top-level function or class of ``src/pshjb`` must be referenced
by name or attribute (or imported by name) from other library code, and
every public method or property of a public class by attribute: a method
is reached only through an attribute, so a local variable of the same
spelling does not count for it.  Docstrings are strings, not references,
and ``__init__.py`` only re-exports modules, so neither counts.

Every defaulted parameter of a public function or method must be passed, by
keyword or by position, by some call in ``src`` or ``bench``; calls from
``tests`` do not count.  Calls are matched by function name alone, with
``import ... as`` aliases resolved to the imported name.

Every field of a ``@dataclass`` of ``src/pshjb`` must be read by attribute
somewhere in ``src`` outside its own class's ``__post_init__``.

Every parameter of every function or lambda of ``src/pshjb`` must be read
in its body.

In ``config.py`` only ``_convert`` turns a YAML value into a number or an
array.

Each ``ProjectedModel`` subclass defines exactly the three contract
queries as public methods, and ``proj_cov`` lives only on the base class.

The control problem is one record, ``hjb.CostSpec``: only its
``ell0_integral`` calls ``ell0``, and ``SolverConfig`` keeps no horizon of
its own.

One failure protocol: only ``cli.py`` builds the errors of an outcome
(``NoContraction``, ``DominanceViolated``), and there only ``main`` and
``_Parser.error`` read an ``EXIT_*`` code.

``checks.py`` imports no model module (``heat``, ``delay``) and reads no
``.cfg`` attribute: an invariant reads the model through the contract.

No public function or method of ``src/pshjb`` is a pure forward: a body
that, docstring aside, returns one call of a function, method or class
of ``src/pshjb`` with only its own parameters, ``self`` attributes and
constants as arguments.

No module of ``src/pshjb`` imports ``threading``: the one thread the
library starts is the pooled noise worker of a greedy
``harness.simulate_cost`` call.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pshjb"
CALLER_DIRS = ("src", "bench")

# test oracles, kept without a library caller: the transition semigroup and
# Cameron-Martin density by quadrature
ALLOWED = {
    "semigroup_apply",
    "cameron_martin_density",
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


def import_aliases(tree) -> dict:
    """``{alias: imported name}`` of every ``import ... as`` in ``tree``."""
    return {alias.asname: alias.name.rpartition(".")[2]
            for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
            for alias in n.names if alias.asname}


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default that no library or benchmark call overrides is a constant
    dressed as an option, also when tests override it.  A call through
    ``*args`` or ``**kwargs`` may pass anything, and a function referenced
    without a call (a builder that config fills from YAML by keyword) may
    be called with anything."""
    trees = [ast.parse(p.read_text()) for d in CALLER_DIRS
             for p in sorted((ROOT / d).rglob("*.py"))]
    passed, open_ended, referenced = set(), set(), set()
    for tree in trees:
        called, aliases = set(), import_aliases(tree)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            called.add(id(n.func))
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            name = aliases.get(name, name)
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
        referenced.update(aliases.get(n.id, n.id) for n in ast.walk(tree)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                          and id(n) not in called and n.id not in bound)
    unused = [
        f"{name}({param})"
        for tree in (ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")))
        for name, param, pos, is_method in defaulted_parameters(tree)
        if name not in open_ended and name not in referenced
        and (name, param) not in passed
        and (pos is None or (name, pos - is_method) not in passed)
    ]
    assert unused == [], "defaulted parameters that no call passes: " + ", ".join(unused)


# fields kept without a reader: the benchmark's heat workload
# (bench/workloads/heat.yaml) sets epsilon, so the field, its check and
# the key go together with the benchmark clean-up of ROADMAP item 1
UNREAD_FIELDS = {"HeatConfig.epsilon"}


def dataclass_fields(tree):
    """(class node, field name) of every annotated field of a ``@dataclass``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            yield from ((cls, n.target.id) for n in cls.body
                        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name))


def loaded_attributes(node) -> Counter:
    """Spellings that ``node`` reads by attribute."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_dataclass_field_is_read():
    """A field that only its own ``__post_init__`` checks, or that nothing
    reads at all, is an input that every caller declares for nothing."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    reads = sum((loaded_attributes(tree) for tree in trees), Counter())
    fields = {f"{cls.name}.{name}": (cls, name)
              for tree in trees for cls, name in dataclass_fields(tree)}
    assert UNREAD_FIELDS <= fields.keys(), "stale allowlist entries: " + ", ".join(
        UNREAD_FIELDS - fields.keys())
    unread = []
    for qual, (cls, name) in fields.items():
        checks = [fn for fn in cls.body if getattr(fn, "name", None) == "__post_init__"]
        outside = reads[name] - sum(loaded_attributes(fn)[name] for fn in checks)
        if outside <= 0 and qual not in UNREAD_FIELDS:
            unread.append(qual)
    assert unread == [], "dataclass fields that nothing reads: " + ", ".join(unread)


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


CONTRACT = {"proj_semigroup_apply", "proj_control", "pushforward_cov"}


def test_models_implement_the_three_queries():
    """A model answers three queries; ``proj_cov(t)`` is their s = 0
    pushforward covariance and P x their t = 0 drift, so a model that
    writes either out again keeps a second copy of the same numbers."""
    models, proj_cov = {}, []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {m.name for m in cls.body if isinstance(m, ast.FunctionDef)}
            if "proj_cov" in methods:
                proj_cov.append(f"{path.stem}.{cls.name}")
            if any(ast.unparse(b).split(".")[-1] == "ProjectedModel" for b in cls.bases):
                models[cls.name] = {m for m in methods if not m.startswith("_")}
    assert {"HeatProjectedModel", "DelayProjectedModel"} <= models.keys()
    wrong = [f"{name}: {sorted(found ^ CONTRACT)}" for name, found in sorted(models.items())
             if found != CONTRACT]
    assert wrong == [], "models whose public methods are not the contract: " + "; ".join(wrong)
    assert proj_cov == ["ou.ProjectedModel"], "proj_cov defined in " + ", ".join(proj_cov)


OUTCOME_ERRORS = {"NoContraction", "DominanceViolated"}
EXIT_READERS = {"main", "error"}


def test_one_failure_protocol():
    """A solve that does not contract and a policy that beats the solved
    value are outcomes that the library returns as records; a command
    writes them, then raises the error, and ``main`` alone maps errors to
    exit codes.  A library raise would skip the command's files, and an
    exit code returned by a command would skip the stderr line."""
    built = [
        f"{path.name}:{n.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] in OUTCOME_ERRORS
    ]
    assert built == [], "outcome errors built outside cli.py: " + ", ".join(built)
    tree = ast.parse((SRC / "cli.py").read_text())
    read = [
        f"{fn.name}:{n.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name not in EXIT_READERS
        for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        and n.id.startswith("EXIT_")
    ]
    assert read == [], "exit codes read outside main: " + ", ".join(read)


MODEL_MODULES = {"heat", "delay"}


def test_check_reads_the_model_contract():
    """``check`` examines the model that every command builds, through the
    ``ProjectedModel`` queries and ``smoothing``; an invariant that imports
    a model module or reads a model's ``cfg`` tests one model class's
    internals (a Gramian, a Kalman rank), not the configured model."""
    found = []
    for n in ast.walk(ast.parse((SRC / "checks.py").read_text())):
        if isinstance(n, (ast.Import, ast.ImportFrom)):
            names = [getattr(n, "module", None) or ""] + [a.name for a in n.names]
            if any(name.split(".")[-1] in MODEL_MODULES for name in names):
                found.append(f"line {n.lineno}: {ast.unparse(n)}")
        elif isinstance(n, ast.Attribute) and n.attr == "cfg":
            found.append(f"line {n.lineno}: {ast.unparse(n)}")
    assert found == [], "checks.py reads model internals: " + ", ".join(found)


# forwards kept on purpose: bench/run.py's Checker calls proj_cov, the s = 0
# pushforward covariance, on every model
FORWARDS = {"ProjectedModel.proj_cov"}


def pure_forward(fn, defined) -> bool:
    """Whether ``fn``'s body, docstring aside, is one ``return`` of one call
    of a name in ``defined`` whose arguments are parameters of ``fn``,
    ``self`` attributes or constants."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    if getattr(call.func, "id", getattr(call.func, "attr", None)) not in defined:
        return False
    params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}

    def plain(arg):
        arg = arg.value if isinstance(arg, ast.Starred) else arg
        return (isinstance(arg, ast.Constant)
                or isinstance(arg, ast.Name) and arg.id in params
                or isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
                and arg.value.id == "self")

    return all(plain(a) for a in call.args) and all(plain(k.value) for k in call.keywords)


def test_no_public_pure_forward():
    """A public routine that only passes its arguments on is a second name
    for one operation: callers split between the two, and a tracer that
    wraps one sees half the calls (the solve once reached the Picard map
    through ``sweep`` while the tests and the benchmark read ``apply``).
    A model's contract queries are the interface the solver reads, so
    they may forward to the model's own routines."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defined = {n.name for tree in trees.values() for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    contract = {
        f"{cls.name}.{query}" for tree in trees.values() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(ast.unparse(b).split(".")[-1] == "ProjectedModel" for b in cls.bases)
        for query in CONTRACT
    }
    found = {f"{name}.{qual}" if "." not in qual else qual
             for name, tree in trees.items()
             for qual, node in public_definitions(tree)
             if isinstance(node, ast.FunctionDef) and qual not in contract
             and pure_forward(node, defined)}
    assert FORWARDS <= found, "stale allowlist entries: " + ", ".join(FORWARDS - found)
    assert found - FORWARDS == set(), "public pure forwards: " + ", ".join(
        sorted(found - FORWARDS))


def test_no_module_imports_threading():
    """Each greedy ``simulate_cost`` call draws its noise on one worker of a
    ``concurrent.futures`` pool, which re-raises the worker's errors and
    joins it when the call returns or raises.  A hand-started thread has to
    do both itself."""
    found = [
        f"{path.name}:{n.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "threading"
                                             for a in n.names)
        or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "threading"
    ]
    assert found == [], "threading imported at " + ", ".join(found)

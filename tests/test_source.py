"""Rules on the package source itself."""

import ast
import re
from pathlib import Path

import lpq
import lpq.errors

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(lpq.__file__).parent.glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def test_sources_found():
    assert {"simulator.py", "spectrum.py", "offset.py"} <= {path.name for path in SOURCES}


def test_no_assert_statements():
    # python -O strips assert, so an invariant checked by one is not checked
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _exported_unused(sources):
    """Names the package's __init__ re-exports that no other module uses.

    Each export resolves to the module __init__ takes it from, and a use
    counts only in three forms: ``from .mod import name``, a bare load of
    the name inside ``mod`` itself, or ``mod.name`` where ``mod`` was
    bound by ``from . import mod``.  Reading an attribute of any other
    object, such as a field that shares the name, is not a use.
    """
    init = next(path for path in sources if path.name == "__init__.py")
    exported = {
        (node.module, alias.name)
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    used = set()
    for path in sources:
        if path == init:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        siblings = {  # local name -> module, from `from . import mod`
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((path.stem, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
            ):
                used.add((siblings[node.value.id], node.attr))
    return sorted(name for module, name in exported - used)


def test_every_export_has_a_caller_in_the_package():
    # an export that only the tests reach belongs in the tests
    assert _exported_unused(SOURCES) == []


def test_export_rule_resolves_names(tmp_path):
    # f, g and h are used in the three counted forms; k only as a field of
    # another object, through a non-sibling module and as a bare name
    # outside its own module, none of which reaches a.k
    package = {
        "__init__.py": "from .a import f, g, h, k\n",
        "a.py": "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\nh()\n",
        "b.py": "import x\nfrom . import a\nfrom .a import g\na.f()\nobj.k\nx.k\nk\n",
    }
    for name, text in package.items():
        (tmp_path / name).write_text(text)
    assert _exported_unused(sorted(tmp_path.glob("*.py"))) == ["k"]


def _methods_unread(sources):
    """Public methods and properties of the package's classes, as
    ``Class.name``, whose name no module reads as an attribute.

    A read is any ``obj.name`` load, whatever ``obj`` is, so a name that
    two classes share counts as read for both; a bare call of the name or a
    store to ``obj.name`` is not a read.
    """
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sources]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{cls.name}.{item.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in read
    )


def test_every_public_method_is_read_in_the_package():
    # a method that only the tests call belongs in the tests
    assert _methods_unread(SOURCES) == []


def test_method_rule_reads_attributes(tmp_path):
    # f is read through an instance, g through the class, the property h
    # by a load; k only by a bare call, p only by a store, and _q and
    # __len__ are not public
    package = {
        "a.py": (
            "class A:\n"
            "    def f(self): pass\n"
            "    @classmethod\n    def g(cls): pass\n"
            "    @property\n    def h(self): pass\n"
            "    def k(self): pass\n"
            "    @property\n    def p(self): pass\n"
            "    def _q(self): pass\n"
            "    def __len__(self): return 0\n"
        ),
        "b.py": "from .a import A\nA().f()\nA.g()\nx = A().h\nk()\nA().p = 1\n",
    }
    for name, text in package.items():
        (tmp_path / name).write_text(text)
    assert _methods_unread(sorted(tmp_path.glob("*.py"))) == ["A.k", "A.p"]


def test_every_error_type_is_raised_or_subclassed():
    # an error type that outlives its last raise site is dead code
    named = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                named.add(call.id if isinstance(call, ast.Name) else getattr(call, "attr", None))
            elif isinstance(node, ast.ClassDef):
                named.update(base.id for base in node.bases if isinstance(base, ast.Name))
    types = {
        name for name, value in vars(lpq.errors).items()
        if isinstance(value, type) and issubclass(value, Exception) and value.__module__ == "lpq.errors"
    }
    assert sorted(types - named) == []


def _module_level_names(tree):
    """The names a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def test_no_module_level_name_starts_with_test():
    # pytest collects a test* function as a test in every test module that
    # imports it
    found = [
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _module_level_names(ast.parse(path.read_text(), filename=str(path)))
        if name.startswith("test")
    ]
    assert found == []


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``, at ``position`` among
    the positional ones if it has one; ``*args`` or ``**kwargs`` may."""
    return (
        any(isinstance(arg, ast.Starred) for arg in call.args)
        or any(keyword.arg in (None, name) for keyword in call.keywords)
        or (position is not None and len(call.args) > position)
    )


def _defaulted_unpassed(defining, calling):
    """Defaulted parameters of the functions in ``defining`` that no call in
    ``calling`` passes, as ``module.function(parameter)``.

    A call counts where its callee's bare or attribute name is the
    function's name.  A method's positions are counted after self or cls,
    unless it is a staticmethod.
    """
    calls = {}
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path in defining:
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {
            id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = func.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [
                arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
            ]
            static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
            if id(func) in methods and not static:
                positional = positional[1:]
            for name in defaulted:
                position = positional.index(name) if name in positional else None
                passed = (_passes(call, name, position) for call in calls.get(func.name, []))
                if not any(passed):
                    found.append(f"{path.stem}.{func.name}({name})")
    return sorted(found)


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant, and a parameter that
    # only the tests pass belongs in the tests
    assert _defaulted_unpassed(SOURCES, SOURCES + BENCH) == []


def test_defaulted_rule_finds_unpassed(tmp_path):
    # f's b is passed by position, c by keyword and d through **kwargs; the
    # method's x by position after self and y through *args; g's e is passed
    # only by a call of another name, and the staticmethod's z only at the
    # position self would take
    package = {
        "a.py": (
            "def f(a, b=1, *, c=2, d=3): pass\n"
            "def g(e=0): pass\n"
            "class A:\n"
            "    def m(self, x=0, y=0): pass\n"
            "    @staticmethod\n    def s(w, z=0): pass\n"
        ),
        "b.py": "f(1, 2)\nf(1, c=3)\nf(1, **kw)\nA().m(1)\nA().m(*xs)\nh(1)\nA.s(1)\n",
    }
    for name, text in package.items():
        (tmp_path / name).write_text(text)
    sources = sorted(tmp_path.glob("*.py"))
    assert _defaulted_unpassed(sources, sources) == ["a.g(e)", "a.s(z)"]


def _unguarded_output(path):
    """Line numbers of output in ``path`` that bypasses the try of
    ``_opened``, whose handler makes every OSError one error line: a call
    of print or open, or any use of sys.stdout.write, anywhere else."""
    tree = ast.parse(path.read_text(), filename=str(path))
    guarded = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "_opened"
        for stmt in func.body
        if isinstance(stmt, ast.Try)
        for inner in stmt.body
        for node in ast.walk(inner)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in guarded
        and (
            isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("print", "open")
            or isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout.write"
        )
    )


def test_cli_output_passes_through_opened():
    # one output path: stdout and --out fail alike, with one error line
    assert _unguarded_output(Path(lpq.__file__).parent / "cli.py") == []


def test_output_rule_finds_bypasses(tmp_path):
    # the open and the stdout inside _opened's try pass, as do a file's
    # write method, stderr and input; the stdout write method _opened
    # hands out past its try, print and a direct stdout write do not
    module = tmp_path / "cli.py"
    module.write_text(
        "def _opened(out):\n"
        "    if out is None:\n"
        "        yield sys.stdout.write\n"
        "        return\n"
        "    try:\n"
        "        with nullcontext(sys.stdout) if out is None else open(out) as f:\n"
        "            yield f.write\n"
        "    except OSError:\n"
        "        print('error')\n"
        "def cmd(args):\n"
        "    sys.stdout.write('band')\n"
        "    print('band')\n"
        "    sys.stderr.write('error')\n"
        "    Path(args.config).read_text()\n"
    )
    assert _unguarded_output(module) == [3, 9, 11, 12]


LENIENT_READS = ("probe", "query_many")  # the oracle's lenient read, and its former name


def _lenient_reads(sources):
    """Where a module other than offset.py reads the oracle's lenient read,
    called or not (see ``_places``).  Only the pair test in offset.py
    forms probes, so it cannot be inlined again."""
    return _places(
        [path for path in sources if path.name != "offset.py"],
        lambda node: isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in LENIENT_READS,
    )


def _places(sources, hit):
    """Each node of ``sources`` where ``hit(node)`` holds, as
    ``module.function``, the innermost function around it, or ``module``
    outside any function."""
    found = set()
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # ast.walk is breadth first, so an inner function overwrites
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        found.update(
            f"{path.stem}.{owner[id(node)]}" if id(node) in owner else path.stem
            for node in ast.walk(tree)
            if hit(node)
        )
    return sorted(found)


def test_only_the_pair_test_reads_the_oracle_leniently():
    # one pair test: Monte-Carlo verifies its candidates through
    # offset.probes_accept, not through probes of its own
    assert _lenient_reads(SOURCES) == []


def test_lenient_read_rule_finds_reads(tmp_path):
    # offset.py may probe; elsewhere a call, a nested function's call, a
    # bound method passed on and a module-level call are found, and a
    # method definition, a plain oracle call and a store are not
    package = {
        "offset.py": "def pair(h, s):\n    return h.probe(s) + h.probe([s])\n",
        "oracle.py": "class H:\n    def probe(self, x):\n        return self(x)\n",
        "analysis.py": (
            "def mc(h, q):\n"
            "    h(0)\n"
            "    h.probe = None\n"
            "    return h.query_many(q)\n"
            "def outer(h):\n"
            "    def inner(x):\n"
            "        return h.probe(x)\n"
            "    return list(map(h.probe, [1]))\n"
            "H().probe(3)\n"
        ),
    }
    for name, text in package.items():
        (tmp_path / name).write_text(text)
    found = _lenient_reads(sorted(tmp_path.glob("*.py")))
    assert found == ["analysis", "analysis.inner", "analysis.mc", "analysis.outer"]


def _oracle_maps(sources):
    """Where a call ``map(handle, ...)`` maps the oracle handle, the name
    ``handle``, over points, as ``module.function`` (see ``_places``)."""
    return _places(
        sources,
        lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map"
        and bool(node.args) and getattr(node.args[0], "id", None) == "handle",
    )


def test_one_scan_of_the_marked_image():
    # the offset search reads the ladder's marked image in one place, so the
    # scan that samples the quantum step can be replaced in one place
    assert _oracle_maps(SOURCES) == ["offset._marked_image"]


def test_oracle_map_rule_finds_scans(tmp_path):
    # map(handle, ...) in a function, in a nested function, inside another
    # call and at module level is found; a map of another function or of a
    # method of the handle, a plain call of the handle and a map passed as
    # a name are not
    module = tmp_path / "offset.py"
    module.write_text(
        "def count(handle, ladder):\n"
        "    return sum(map(handle, ladder))\n"
        "def walk(handle, ladder):\n"
        "    def inner():\n"
        "        return list(map(handle, ladder))\n"
        "    return inner\n"
        "def other(handle, f, ladder):\n"
        "    handle(ladder[0])\n"
        "    apply(map, handle)\n"
        "    return map(f, ladder), map(handle.probe, ladder)\n"
        "marked = list(map(handle, [0]))\n"
    )
    assert _oracle_maps([module]) == ["offset", "offset.count", "offset.inner"]


def _declared_floor() -> tuple[int, int]:
    """The lowest Python that pyproject.toml declares, read with a regex,
    since tomllib is new in 3.11."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def _unparsed(paths, version):
    """The files that do not parse in the grammar of Python ``version``,
    as ``name:line: message``."""
    found = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=version)
        except SyntaxError as exc:
            found.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    return found


def test_every_file_parses_at_the_declared_floor():
    # the grammar only: nothing here runs on the floor's interpreter
    assert _unparsed(SOURCES + TESTS + BENCH, _declared_floor()) == []


def test_floor_rule_rejects_newer_syntax(tmp_path):
    # except* is 3.11 grammar
    module = tmp_path / "a.py"
    module.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert _unparsed([module], (3, 11)) == []
    [found] = _unparsed([module], (3, 10))
    assert found.startswith("a.py:") and "Exception groups" in found


# The only reader of a whole closed-form table: Monte-Carlo's exact edges,
# built only where a uniform lands within the slack of a closed-form edge.
# The commands that print a table evaluate its rows a block at a time.
TABLE_READERS = {"analysis._exact_edges"}


def _table_readers(sources):
    """Where ``closed_form_table`` is read, called or not, as
    ``module.function`` (see ``_places``); its def and its imports are
    not reads."""
    return _places(
        sources,
        lambda node: (isinstance(node, ast.Name) and node.id == "closed_form_table")
        or (isinstance(node, ast.Attribute) and node.attr == "closed_form_table"),
    )


def test_only_the_printed_tables_and_the_exact_edges_build_a_table():
    # Monte-Carlo reads its edges in closed form, and the printed tables
    # their rows, so an n-entry table is built only by the sampler's fallback
    assert set(_table_readers(SOURCES)) - TABLE_READERS == set()


def test_table_reader_rule_finds_readers(tmp_path):
    # a call, a call through the module, a nested function's call and a
    # function passed on are found, the printing commands' among them; the
    # allowed reader, the import, a string and another name are not
    package = {
        "closedform.py": "def closed_form_table(spec, alg):\n    return spec\n",
        "__init__.py": (
            "from .closedform import closed_form_table\n__all__ = ['closed_form_table']\n"
        ),
        "analysis.py": (
            "from .closedform import closed_form_table\n"
            "def monte_carlo_trials(spec, alg):\n"
            "    cdf = closed_form_table(spec, alg).pr.cumsum()\n"
            "def _exact_edges(spec, alg):\n"
            "    return closed_form_table(spec, alg)\n"
            "def outer(spec):\n"
            "    def inner(alg):\n"
            "        return closedform.closed_form_table(spec, alg)\n"
            "    return list(map(closed_form_table, [spec]))\n"
            "def other(spec):\n"
            "    return 'closed_form_table', closed_form_at(spec)\n"
        ),
        "cli.py": (
            "def cmd_spectrum(args):\n"
            "    return closedform.closed_form_table(args, 1)\n"
            "def cmd_compare(args):\n"
            "    return {a: closedform.closed_form_table(args, a) for a in args}\n"
        ),
    }
    for name, text in package.items():
        (tmp_path / name).write_text(text)
    found = set(_table_readers(sorted(tmp_path.glob("*.py")))) - TABLE_READERS
    assert found == {"analysis.inner", "analysis.monte_carlo_trials", "analysis.outer",
                     "cli.cmd_compare", "cli.cmd_spectrum"}

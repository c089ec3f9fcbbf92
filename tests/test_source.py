"""Checks on the library's source text."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "multireg"
TESTS = ROOT / "tests"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_def_is_referenced():
    """A module-level or class-level function or class of the package
    that no name, attribute or import in the package or its tests
    refers to is dead code, such as a helper left behind when its job
    moved elsewhere.  Dunder methods are called by the language."""
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        for scope in [tree] + [n for n in tree.body
                               if isinstance(n, ast.ClassDef)]:
            for node in scope.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))):
                    defs.append(f"{path.name}:{node.name}")
    used = set()
    for path in sorted(SRC.glob("*.py")) + sorted(
            (ROOT / "tests").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    assert defs
    assert [d for d in defs if d.split(":")[1] not in used] == []


def test_every_class_constructor_is_called():
    """A classmethod or staticmethod C.m of the package must be read
    as C.m in the package or its tests, or as cls.m inside C.  The
    check above counts any attribute of the same name as a use, so a
    constructor outlives its last caller whenever another class has
    one of the same name."""
    wanted = []
    for path in sorted(SRC.glob("*.py")):
        for cls in _tree(path).body:
            if isinstance(cls, ast.ClassDef):
                wanted += [(cls.name, node.name) for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and any(isinstance(d, ast.Name)
                                   and d.id in ("classmethod",
                                                "staticmethod")
                                   for d in node.decorator_list)]
    def reads(node):
        return [(n.value.id, n.attr) for n in ast.walk(node)
                if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name)]

    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted(
            (ROOT / "tests").glob("*.py")):
        tree = _tree(path)
        read.update(reads(tree))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                read.update((cls.name, m) for owner, m in reads(cls)
                            if owner == "cls")
    assert wanted
    assert [f"{c}.{m}" for c, m in wanted if (c, m) not in read] == []


def test_every_import_is_used():
    """A name a package module imports and never reads is left over
    from code that moved or went, such as a helper import that outlived
    its last caller.  ``__init__`` imports to re-export."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    bound[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}"
                   for name, line in bound.items() if name not in read]
    assert unused == []


def _imports(name):
    """Top-level modules and imported names of one package module."""
    imported = set()
    for node in ast.walk(_tree(SRC / name)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[0])
            imported.update(a.name for a in node.names)
    assert imported
    return imported


def test_ringcore_is_exact_arithmetic_only():
    """Dense F_p linear algebra lives in modp and the graded pieces;
    the ring layer imports neither numpy nor modp."""
    assert not _imports("ringcore.py") & {"numpy", "modp"}


def test_regularity_leaves_linear_algebra_to_pieces():
    """The region sweep asks the graded pieces for Koszul homology:
    the assembly of its matrices stays in pieces and the elimination
    in modp, so regularity imports neither numpy nor modp."""
    assert not _imports("regularity.py") & {"numpy", "modp"}


def test_truncation_leaves_linear_algebra_to_pieces():
    """Truncation asks the graded pieces for minimal generators and
    groebner for the preimage of the relations, so it builds no matrix
    and no kernel of its own."""
    assert not _imports("truncation.py") & {"numpy", "modp",
                                            "kernel_projection"}


def test_truncate_module_lists_no_cover_and_takes_no_normal_form():
    """A truncation's generators are the elements of M's standard basis
    that ``GradedPieces.minimal_generators`` picks, so
    ``truncate_module`` neither lists the monomial cover of F0 nor
    reduces candidates to normal form."""
    fn = next(node for node in ast.walk(_tree(SRC / "truncation.py"))
              if isinstance(node, ast.FunctionDef)
              and node.name == "truncate_module")
    names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
    assert not names & {"truncate_free", "monomials_of_degree",
                        "normal_form"}


def test_only_ringcore_twists_a_source_by_column_degrees():
    """A matrix's source twists are its columns' degrees, read by
    ``MatrixOverS.from_columns``: no other module calls ``.degree(``
    inside the arguments of a ``FreeModuleSpec(...)`` call."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ringcore.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "FreeModuleSpec"):
                found += [f"{path.name}:{node.lineno}"
                          for arg in node.args + node.keywords
                          for sub in ast.walk(arg)
                          if isinstance(sub, ast.Call)
                          and isinstance(sub.func, ast.Attribute)
                          and sub.func.attr == "degree"]
    assert found == []


def test_every_exception_class_is_raised():
    """An exception class of errors.py that no package module raises
    is an error the library can no longer report, left behind when
    the check that raised it went."""
    classes = {node.name for node in _tree(SRC / "errors.py").body
               if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes
    assert sorted(classes - raised) == []


def test_oracle_builds_no_resolution_of_the_module():
    """The local-cohomology route stays independent of the truncation
    route: the oracle bounds its power from Groebner leads, and never
    calls ``free_resolution`` or ``schreyer_frame``."""
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(_tree(SRC / "cohomology.py"))
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not names & {"free_resolution", "schreyer_frame"}


def test_cli_keeps_no_input_rules():
    """An argument is checked by the library function that takes it,
    and the front end only names it in the error: no ``if`` in cli.py
    that raises is decided by a comparison with ``len(...)``,
    ``min(...)``, a ``.rank`` or the literal 0, the marks of a copied
    rank or sign rule."""
    def rule_like(node):
        return ((isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in ("len", "min"))
                or (isinstance(node, ast.Attribute) and node.attr == "rank")
                or (isinstance(node, ast.Constant) and node.value == 0
                    and type(node.value) is int))

    found = []
    for node in ast.walk(_tree(SRC / "cli.py")):
        if (isinstance(node, ast.If)
                and any(isinstance(sub, ast.Raise)
                        for stmt in node.body for sub in ast.walk(stmt))):
            found += [f"cli.py:{cmp.lineno}" for cmp in ast.walk(node.test)
                      if isinstance(cmp, ast.Compare)
                      and any(rule_like(sub) for sub in ast.walk(cmp))]
    assert found == []


def test_only_ringcore_and_groebner_read_term_keys():
    """Only ringcore and groebner build or read a term's key: every
    other module, and every test but those of the two modules
    themselves, works with the (component, monomial, coefficient)
    entries of ringcore's view, so the key can change behind those two
    modules.  The marks of a key handled by hand are a ``term_key``
    import, a ``_canonical`` keyword, a target that unpacks a key,
    ``((_, m, negc), c)``, and a chain of constant indexes on a term,
    such as ``t[0][2]``."""
    def constant_index(node):
        return (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and type(node.slice.value) is int)

    found = []
    own = ("ringcore.py", "groebner.py", "test_ringcore.py",
           "test_groebner.py")
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name in own:
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.alias):
                hit = node.name == "term_key"
            elif isinstance(node, ast.keyword):
                hit = node.arg == "_canonical"
            elif isinstance(node, ast.Tuple):
                hit = (isinstance(node.ctx, ast.Store) and len(node.elts) == 2
                       and isinstance(node.elts[0], ast.Tuple)
                       and len(node.elts[0].elts) == 3)
            else:
                hit = constant_index(node) and constant_index(node.value)
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

"""Every definition in ``src/dysonct`` sits on a route that the program runs.

The scan parses ``src/dysonct/*.py`` with ``ast``: each module-level
function and class, and each method, is one definition.  It then follows
the Name and Attribute references of every reached definition's body, by
name, from these roots:

  * module-level code, which also names the ``cli.REGISTRY`` enumerators,
    and the decorators, defaults and class bodies that run on import;
  * ``cli.main`` and ``cli.run``;
  * every ``identities.verify_*`` and ``rhs_*``;
  * each name that ``bench/spans.py`` wraps (its ``TARGETS``, plus
    ``c_w``), read from that file.

A reached class reaches its dunder methods, which the interpreter calls
by syntax.  A class counts as a whole when ``spans`` wraps its
constructor, as it does ``QRat.__init__``: then the bench counts every
instance, and the class leaves the package as one unit once the bench
stops wrapping it.  Any other wrapped method (``MPoly.coeff_aux``) is a
root by itself, and the rest of its class must be reached on its own.

A by-name scan cannot see a definition whose name is shared: a reference
to one name reaches every definition of that name.  So a module-level
``product`` that no route calls looks reached next to ``itertools.product``,
and so does an ``IntPoly``-valued ``one_minus_q`` next to
``Cyclo.one_minus_q``, a module-level ``qmultinom`` next to
``Cyclo.qmultinom``, ``MPoly.coeff`` next to ``IntPoly.coeff``, and
``ZeroOneMatrix.total`` next to any local named ``total``.  Such names
stay a matter for review.  Test-only references belong in
``tests/reference.py``.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dysonct"


def _names(nodes) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _define(mod, stmt, defs, top, owner=""):
    """Record ``stmt`` in ``defs`` ((module, qualified name) -> the names
    its body mentions) or, if it runs on import, in ``top``."""
    if isinstance(stmt, ast.FunctionDef):
        defs[mod, owner + stmt.name] = _names(stmt.body)
        top |= _names(stmt.decorator_list + [stmt.args])
    elif isinstance(stmt, ast.ClassDef) and not owner:
        defs[mod, stmt.name] = set()
        top |= _names(stmt.decorator_list + stmt.bases)
        for sub in stmt.body:
            _define(mod, sub, defs, top, stmt.name + ".")
    else:
        if owner and isinstance(stmt, ast.Assign):  # __radd__ = __add__
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    defs[mod, owner + target.id] = _names([stmt.value])
        top |= _names([stmt])


def _scan():
    defs, top = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            _define(path.stem, stmt, defs, top)
    return defs, top


def _reach(defs, roots, names) -> set:
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1].rpartition(".")[2], []).append(key)
    todo = list(roots) + [k for name in names for k in by_name.get(name, ())]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo += [k for name in defs[key] for k in by_name.get(name, ())]
        todo += [k for k in defs if k[0] == key[0]
                 and k[1].startswith(key[1] + ".__")]
    return seen


def _span_targets():
    spec = importlib.util.spec_from_file_location(
        "_spans_for_reach", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(mod, owner, attr) for mod, owner, attr, _ in spans.TARGETS] + [
        ("identities", None, "c_w")]


def test_every_definition_is_on_a_route():
    defs, top = _scan()
    roots = {("cli", "main"), ("cli", "run")} | {
        key for key in defs if key[0] == "identities"
        and key[1].startswith(("verify_", "rhs_"))}
    for mod, owner, attr in _span_targets():
        if owner is None:
            roots.add((mod, attr))
        elif attr != "__init__":
            roots.add((mod, f"{owner}.{attr}"))
        else:
            roots |= {(mod, owner)} | {k for k in defs if k[0] == mod
                                       and k[1].startswith(owner + ".")}
    missing = sorted(roots - defs.keys())
    assert not missing, f"roots without a definition: {missing}"
    unreached = sorted(f"{mod}.{name}" for mod, name in
                       defs.keys() - _reach(defs, roots, top))
    assert not unreached, (
        f"{len(unreached)} definitions that no route reaches; move them to "
        f"tests/reference.py or delete them: {unreached}")

"""`src/fedembed` keeps only what the program calls: every function, class
and method it defines is used somewhere in the package besides its own
definition, and every field of its dataclasses and NamedTuples is read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedembed"

# called only from outside the package
ALLOWED = {
    "federation.Simulation.top_k_lists",   # the serving call: top-k lists per test user
    "pretrain.read_codes",                 # reads the codes.tsv `fedembed pretrain` writes
}

# read only by the benchmark's checks of a run's round reports
ALLOWED_FIELDS = {
    "federation.RoundReport.aggregate_bytes",
    "federation.RoundReport.base_hash",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of each top-level function and class and
    each method; dunder methods are called by the language, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _fields(module: str, tree: ast.Module):
    """(qualified name, bare name) of each field of each top-level dataclass
    and NamedTuple; `ClassVar` annotations are not fields."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [ast.unparse(d).split("(")[0] for d in node.decorator_list + node.bases]
        if not {"dataclass", "dataclasses.dataclass", "NamedTuple"} & set(marks):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and not ast.unparse(item.annotation).startswith("ClassVar")):
                yield f"{module}.{node.name}.{item.target.id}", item.target.id


def test_every_src_definition_has_a_src_caller():
    trees = _trees()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [qualified for module, tree in trees.items()
              for qualified, name in _definitions(module, tree)
              if name not in used and qualified not in ALLOWED]
    assert not unused, f"defined in src/fedembed but never used there: {unused}"


def test_every_src_field_is_read():
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [qualified for module, tree in trees.items()
              for qualified, name in _fields(module, tree)
              if name not in read and qualified not in ALLOWED_FIELDS]
    assert not unread, f"fields in src/fedembed that nothing there reads: {unread}"


# where a value enters the program: files read back, a client's update and
# private state, the fold, the pre-training losses, and config values
FINITENESS_DOORS = {
    "strategies.load_checkpoint", "federation.load_sim_state", "data.load_item_features",
    "federation.Simulation._train", "federation.Simulation.run_round",
    "pretrain.train_autoencoder", "pretrain.train_rqvae",
    "config.ExperimentConfig._validate_numbers",
    "numerics.check_finite",               # the helper itself
}


def _calls(node: ast.AST, scope: str):
    """(qualified name of the enclosing definition, called name) of each call under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            func = child.func
            yield scope, getattr(func, "id", getattr(func, "attr", None))
        yield from _calls(child, inner)


def test_finiteness_is_checked_only_at_the_doors():
    stray = sorted({scope for module, tree in _trees().items()
                    for scope, name in _calls(tree, module)
                    if name in ("check_finite", "isfinite")
                    and not any(scope == door or scope.startswith(door + ".")
                                for door in FINITENESS_DOORS)})
    assert not stray, f"finiteness checked outside the doors, in: {stray}"

"""The public surface: what the README and the benchmark read resolves on the
package; every top-level definition, class member and dataclass field in the
library has a reader; and the README's tables render whole."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import reflectron
import reflectron.cli  # noqa: F401  (binds reflectron.cli, as bench/queries.py does)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reflectron"


def _bench_reads():
    """Attribute chains bench/queries.py reads off `reflectron as R`,
    e.g. ("circuits", "circuit_to_dense")."""
    chains = set()
    for node in ast.walk(ast.parse((ROOT / "bench" / "queries.py").read_text())):
        if isinstance(node, ast.Attribute):
            chain = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                chain.insert(0, value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id == "R":
                chains.add(tuple(chain))
    # R.cli.main also walks past R.cli; keep the full chains only
    return {c for c in chains if not any(len(o) > len(c) and o[: len(c)] == c for o in chains)}


def _readme():
    return (ROOT / "README.md").read_text()


def _readme_example_imports():
    return [
        name.strip()
        for group in re.findall(r"^from reflectron import (.+)$", _readme(), re.M)
        for name in group.split(",")
    ]


def _init_exports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return {a.asname or a.name for node in imports for a in node.names}


def test_benchmark_and_readme_names_resolve():
    chains = _bench_reads()
    assert ("diamond_covariant",) in chains and ("circuits", "circuit_to_dense") in chains
    for chain in chains:
        obj = reflectron
        for attr in chain:
            obj = getattr(obj, attr)
    example = _readme_example_imports()
    assert example == ["optimal_reflection_coeffs", "diamond_covariant"]
    for name in example:
        assert callable(getattr(reflectron, name))


def test_readme_example_returns_what_its_comment_states():
    block = re.search(r"^Example:\n\n```python\n(.*?)^```", _readme(), re.M | re.S).group(1)
    value, p_star = map(float, re.search(r"# value == ([\d.]+) .* p\* = ([\d.]+)$", block, re.M).groups())
    scope = {}
    exec(block, scope)
    assert abs(scope["value"] - value) <= 1e-12
    assert abs(scope["p_star"] - p_star) <= 1e-12


def test_init_exports_only_what_is_read():
    errors = {"ConsistencyError", "DimensionBudgetError", "NonChannelElementError"}
    read = {chain[0] for chain in _bench_reads() if len(chain) == 1}
    assert _init_exports() == errors | read | set(_readme_example_imports())


def _references(node, skip=None):
    """Names loaded, read as an attribute or imported under `node`, outside the subtree `skip`."""
    if node is skip:
        return set()
    if isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.ImportFrom):
        names = {a.name for a in node.names}
    else:
        names = set()
    for child in ast.iter_child_nodes(node):
        names |= _references(child, skip)
    return names


def _library():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_definition_has_a_reader():
    """Every top-level def of the library is read by another of its modules,
    the CLI included, by its own module outside its body, or by the benchmark."""
    modules = _library()
    bench = {name for chain in _bench_reads() for name in chain}
    everywhere = {stem: _references(tree) for stem, tree in modules.items()}
    orphans = []
    for stem, tree in modules.items():
        elsewhere = set().union(*(refs for other, refs in everywhere.items() if other != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # a def's own body does not count, so a function that only calls itself is an orphan
            used = node.name in elsewhere or node.name in _references(tree, skip=node)
            if not (used or node.name in bench):
                orphans.append(f"{stem}.{node.name}")
    assert orphans == []


def test_every_class_member_has_a_reader():
    """Every method, property and classmethod of a library class is read
    outside its own body, by the library or by bench/queries.py. Dunders and
    overrides of a base-class attribute, such as cli._Parser.error, are read
    by Python and the base class."""
    modules = _library()
    bench = _references(ast.parse((ROOT / "bench" / "queries.py").read_text()))
    orphans = []
    for stem, tree in modules.items():
        module = importlib.import_module(f"reflectron.{stem}")
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            bases = getattr(module, cls.name).__mro__[1:]
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                    continue
                if any(hasattr(base, member.name) for base in bases):
                    continue
                readers = bench.union(*(_references(other, skip=member) for other in modules.values()))
                if member.name not in readers:
                    orphans.append(f"{stem}.{cls.name}.{member.name}")
    assert orphans == []


def _attribute_reads(node, skip=None):
    """Attribute names read (loaded) under `node`, outside the subtree `skip`."""
    if node is skip:
        return set()
    names = {node.attr} if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else set()
    for child in ast.iter_child_nodes(node):
        names |= _attribute_reads(child, skip)
    return names


def test_every_dataclass_field_has_a_reader():
    """Every field of a library dataclass is read as an attribute outside its
    class body, by the library or by bench/queries.py or bench/tracer.py (the
    tracer reads MinimizeResult.nfev). The check goes by name, so a field
    named as another object's attribute, such as n or d, passes."""
    modules = _library()
    bench = set().union(
        *(_attribute_reads(ast.parse((ROOT / "bench" / name).read_text())) for name in ("queries.py", "tracer.py"))
    )
    orphans = []
    for stem, tree in modules.items():
        module = importlib.import_module(f"reflectron.{stem}")
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            obj = getattr(module, cls.name)
            if not dataclasses.is_dataclass(obj):
                continue
            readers = bench.union(*(_attribute_reads(other, skip=cls) for other in modules.values()))
            orphans += [f"{stem}.{cls.name}.{f.name}" for f in dataclasses.fields(obj) if f.name not in readers]
    assert orphans == []


def _cells(row):
    """The cells of a Markdown table row, split on the pipes not escaped as \\|."""
    return re.split(r"(?<!\\)\|", row.strip())[1:-1]


def test_readme_table_rows_have_as_many_cells_as_their_header():
    bad = []
    header = None
    for line in _readme().splitlines():
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = len(_cells(line))
        elif len(_cells(line)) != header:
            bad.append(_cells(line)[0].strip())
    assert bad == []

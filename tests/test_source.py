import ast
import pathlib

import torsys


def _src_nodes():
    for path in sorted(pathlib.Path(torsys.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements_in_src():
    # assert vanishes under python -O, so invariants in the library raise
    found = [
        f"{name}:{node.lineno}"
        for name, node in _src_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_floats_in_src():
    # arithmetic is exact: no float literal and no call to float()
    found = [
        f"{name}:{node.lineno}"
        for name, node in _src_nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert found == []


def test_no_fractions_in_src():
    # the only number type is int: no fractions import and no Fraction name
    found = [
        f"{name}:{node.lineno}"
        for name, node in _src_nodes()
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    ]
    assert found == []


def test_classify_imports_only_minus_two_rays_from_twist():
    # certificates are replayed through torsys.twist, so the fullness search
    # in classify.py must not share its twist code
    path = pathlib.Path(torsys.__file__).parent / "classify.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.module in ("twist", "torsys.twist"):
                imported.extend(names)
            elif node.module in (None, "torsys") and "twist" in names:
                imported.append("twist")
        elif isinstance(node, ast.Import):
            imported.extend(a.name for a in node.names if a.name == "torsys.twist")
    assert imported == ["minus_two_rays"]


def test_classify_imports_only_weyl_orbit_from_isometry():
    # orbit_report works on systems, never on the matrix group: classify.py
    # may not import weyl_group, orbit or Isometry
    path = pathlib.Path(torsys.__file__).parent / "classify.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.module in ("isometry", "torsys.isometry"):
                imported.extend(names)
            elif node.module in (None, "torsys") and "isometry" in names:
                imported.append("isometry")
        elif isinstance(node, ast.Import):
            imported.extend(a.name for a in node.names if a.name == "torsys.isometry")
    assert sorted(imported) == ["RankOutOfRange", "weyl_orbit"]


def test_isometry_reads_no_class_table():
    # weyl_group's products are K-isometries by construction and Isometry
    # validates by its own formula: isometry.py may not import or name the
    # class tables of systems.py
    path = pathlib.Path(torsys.__file__).parent / "isometry.py"
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert named & {"_entry_ids", "_class_table", "_class_tables", "_ClassTable"} == set()


def test_cohomology_oracle_and_fast_path_share_no_code():
    # the brute-force oracle cross-checks the fast path, so neither side may
    # call or name a function of the other
    path = pathlib.Path(torsys.__file__).parent / "cohomology.py"
    functions = {
        node.name: node
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    oracle = {"oracle_cohomology_dims", "_oracle_box", "_oracle_sum"}
    fast = {
        "h0",
        "_h0",
        "_section_polygon",
        "_floor_sum",
        "cohomology_dims",
        "vanishes_totally",
    }

    def names(function):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(functions[function])
            if isinstance(node, (ast.Name, ast.Attribute))
        }

    assert oracle | fast <= set(functions)
    assert {f: names(f) & fast for f in oracle} == {f: set() for f in oracle}
    assert {f: names(f) & oracle for f in fast} == {f: set() for f in fast}


def test_cohomology_keeps_no_cache():
    # the class tables of systems.py are the one memo of cohomology answers:
    # cohomology.py imports no functools and decorates no function
    path = pathlib.Path(torsys.__file__).parent / "cohomology.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        name
        for node in ast.walk(tree)
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    assert "functools" not in imported
    decorated = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any("cache" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert decorated == []


def test_cli_holds_no_json_schema_and_no_replay():
    # the JSON readers and writers and the certificate replay live in
    # torsys.schema; cli.py only parses arguments, renders text and exits
    import torsys.cli
    import torsys.schema

    path = pathlib.Path(torsys.__file__).parent / "cli.py"
    defined = [
        node.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    ]
    assert [
        name for name in defined
        if name.endswith(("_to_json", "_from_json")) or "replay" in name
    ] == []
    # perfbench renders reproduce-paper through these two names
    assert torsys.cli.report_to_json is torsys.schema.report_to_json
    assert torsys.cli.certificate_to_json is torsys.schema.certificate_to_json


def test_rank6_certificate_digest_is_taken_with_the_schema_writer():
    path = pathlib.Path(__file__).parent / "test_classify.py"
    test = next(
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "test_rank6_certificates_are_pinned"
    )
    imports = [
        (node.module, [a.name for a in node.names])
        for node in ast.walk(test)
        if isinstance(node, ast.ImportFrom) and "certificate_to_json" in [a.name for a in node.names]
    ]
    assert imports == [("torsys.schema", ["certificate_to_json"])]


def test_one_deaugmentation_body():
    # _deaugment_coeffs in systems.py is the only de-augmentation: classify.py
    # defines none of its own, only _deaugment_coeffs names the blow-down and
    # pushdown primitives, and the public deaugment, the search kernel _path
    # and is_constructible, through its witness rebuild, all reach it
    # through their calls
    base = pathlib.Path(torsys.__file__).parent
    functions = {}
    for module in ("systems.py", "classify.py"):
        tree = ast.parse((base / module).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
        if module == "classify.py":
            own = [
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and "deaugment" in node.name.lower()
            ]
            assert own == []

    def names(function):
        return {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(functions[function])
            if isinstance(node, (ast.Name, ast.Attribute))
        }

    def reaches(start, target):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == target:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(names(name) & set(functions))
        return False

    primitives = {"blow_down", "pushdown", "_drop_exceptional", "_unit", "_unit_relation"}
    assert sorted(f for f in functions if names(f) & primitives) == ["_deaugment_coeffs"]
    assert {
        f: reaches(f, "_deaugment_coeffs") for f in ("_path", "is_constructible", "deaugment")
    } == {
        "_path": True,
        "is_constructible": True,
        "deaugment": True,
    }


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # the value types are plain records, so the cold start of every CLI call
    # skips dataclasses and the inspect, ast, dis and tokenize it loads; -S
    # keeps the imports of site's .pth files out of the check
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(torsys.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, torsys.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))",
        ],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_dataclasses_or_typing_imports_in_src():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _src_nodes()
        if (
            isinstance(node, ast.Import)
            and any(a.name.split(".")[0] in ("dataclasses", "typing") for a in node.names)
        )
        or (isinstance(node, ast.ImportFrom) and node.module in ("dataclasses", "typing"))
    ]
    assert found == []


def test_every_record_declares_its_slots():
    # no record carries an instance dictionary: _Record and each of its
    # subclasses declare __slots__ in the class body
    records, missing = [], []
    for name, node in _src_nodes():
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
        if node.name != "_Record" and "_Record" not in bases:
            continue
        records.append(node.name)
        declared = any(
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
            for stmt in node.body
        )
        if not declared:
            missing.append(f"{name}:{node.name}")
    assert len(records) == 17  # the base and the 16 value types
    assert missing == []

"""Rules on the package source, read from its syntax trees: no float
anywhere, imports between its modules that form no cycle, no reach into
argparse's private members, one f = g(h) search body, in mvar,
one proof that f = g(h), composing, called from two places by one name,
one function for each threshold and for the small-fiber test, one
place that names each command's handler, one place that chooses each
field's kernel, which makes no field element, one degree, written
once, to which each curve root is lifted, and one function that raises T
to the field order, beside a distinct-degree split that takes its roots
from the root finder."""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ffdecomp"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _package_imports(nodes):
    """The modules of the package that the relative imports among nodes name."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            yield from (name for name in names if name in MODULES)


def test_no_float_in_the_package():
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr in ("sqrt", "pow")
                or isinstance(node, ast.ImportFrom)
                and node.module == "math"
                and any(alias.name in ("sqrt", "pow") for alias in node.names)
            ):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, found


def test_top_level_imports_form_no_cycle():
    graph = {name: set(_package_imports(tree.body)) for name, tree in MODULES.items()}
    assert graph["decomp"] >= {"mvar"} and "decomp" not in graph["mvar"]
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_only_gf_core_defers_imports_and_only_of_upoly():
    # gf_core searches and inverts moduli with upoly, which builds on gf_core
    deferred = [
        (name, imported)
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for imported in _package_imports(ast.walk(fn))
    ]
    assert deferred == [("gf_core", "upoly")] * 3


def test_only_gf_core_reads_the_field_tables():
    # FieldSpec is the one place that chooses how to compute: the log/antilog
    # and Zech tables live in the closures that FieldSpec._table_ops returns,
    # no other name refers to them, and no module reaches into a closure
    tables, closure = {"exp", "log", "zech"}, {"closure__", "cell_contents", "getclosurevars"}
    table_ops = next(
        fn for fn in ast.walk(MODULES["gf_core"]) if isinstance(fn, ast.FunctionDef) and fn.name == "_table_ops"
    )
    inside = {id(node) for node in ast.walk(table_ops)}
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.lstrip("_") in tables | closure
        or name == "gf_core" and isinstance(node, ast.Name) and node.id in tables and id(node) not in inside
    ]
    assert not found, found


def test_no_module_reads_argparse_private_members():
    # the CLI's option table stands on the public attributes of the Actions
    # that add_argument returns: option_strings, dest, type, choices, default
    # and required
    private = {"_actions", "_option_string_actions", "_name_parser_map", "_get_values",
               "_get_value", "_check_value"}
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (node.attr in private
             or isinstance(node.value, ast.Name) and node.value.id == "argparse" and node.attr.startswith("_"))
        or isinstance(node, ast.ImportFrom)
        and node.module == "argparse"
        and any(alias.name.startswith("_") for alias in node.names)
    ]
    assert not found, found


def test_only_mvar_names_the_curve_root_search():
    # find_h is find_h_mv at n = 1, so the roots of the curve
    # A(X)Q(Y) - B(X)P(Y) are searched, verified and keyed in mvar alone
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        if name != "mvar"
        for node in ast.walk(tree)
        if "_curve_roots"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]
    assert not found, found


def _names_mrat_compose(node):
    """A use, attribute, import or alias of the name mrat_compose (not its def)."""
    name = node.name if isinstance(node, ast.alias) else None
    return "mrat_compose" in (getattr(node, "id", None), getattr(node, "attr", None), name)


def test_only_the_search_and_its_check_compose_and_by_the_traced_name():
    # composing is the one proof that f = g(h): find_h_mv and verify_h_mv
    # alone call mrat_compose, by its module-level name, the name under which
    # the benchmark traces it; an alias, an import or a rebinding would
    # escape the trace, and a caller elsewhere would be a second proof path
    allowed = {("mvar", "find_h_mv"), ("mvar", "verify_h_mv")}
    callers, found = set(), []
    for name, tree in MODULES.items():
        parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in filter(_names_mrat_compose, ast.walk(tree)):
            call = owner = parent.get(id(node))
            while owner is not None and not isinstance(owner, ast.FunctionDef):
                owner = parent.get(id(owner))
            if (isinstance(node, ast.Name) and isinstance(call, ast.Call) and call.func is node
                    and owner is not None and (name, owner.name) in allowed):
                callers.add((name, owner.name))
            else:
                found.append(f"{name}.py:{node.lineno}")
    assert not found, found
    assert callers == allowed


def _owners(tree, match):
    """(node, the name of the innermost function around it, or None at
    module level) for each node of tree that match accepts."""
    parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in filter(match, ast.walk(tree)):
        owner = parent.get(id(node))
        while owner is not None and not isinstance(owner, ast.FunctionDef):
            owner = parent.get(id(owner))
        yield node, None if owner is None else owner.name


def _t31_bound(node):
    # (d + delta) ** 4
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and (
        getattr(node.right, "value", None) == 4
    )


def _t41_constant(node):
    # Fraction(39, 5)
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction" and [
        getattr(arg, "value", None) for arg in node.args
    ] == [39, 5]


def _small_fiber_test(node):
    # 2 * <fiber size> <= delta
    return (
        isinstance(node, ast.Compare)
        and [type(op) for op in node.ops] == [ast.LtE]
        and getattr(node.comparators[0], "id", None) == "delta"
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Mult)
        and getattr(node.left.left, "value", None) == 2
    )


def test_each_threshold_and_the_small_fiber_test_is_written_once():
    # the (d+delta)^4 bound of T31, the (39/5)^3 (d+delta)^13 bound of T41
    # and the test 2|fiber| <= delta each live in one function of decomp and
    # mvar, and the checkers and criterion 8's verdicts read that function
    rules = [
        (_t31_bound, "decomp", "t31_threshold", ("check_t1", "check_t31", "t31_threshold_ok")),
        (_t41_constant, "mvar", "t41_threshold", ("check_t41", "t41_threshold_ok")),
        (_small_fiber_test, "decomp", "_small_points", ("check_t1", "small_fiber_diagnostics")),
    ]
    for match, module, rule, readers in rules:
        def calls(node):
            return isinstance(node, ast.Call) and getattr(node.func, "id", None) == rule

        where = {(name, owner) for name in ("decomp", "mvar") for _, owner in _owners(MODULES[name], match)}
        assert where == {(module, rule)}, (rule, where)
        callers = {(name, owner) for name in ("decomp", "mvar") for _, owner in _owners(MODULES[name], calls)}
        assert callers == {(module, reader) for reader in readers}, (rule, callers)


def test_each_command_handler_is_named_once_where_its_command_is_declared():
    # _build_parser passes each handler to the declaration of its command;
    # a second table of handlers would be a second list of the commands
    tree = MODULES["cli"]
    handlers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    uses = _owners(tree, lambda node: isinstance(node, ast.Name) and node.id.startswith("_cmd_"))
    assert len(handlers) == 16
    assert sorted((node.id, owner) for node, owner in uses) == sorted((h, "_build_parser") for h in handlers)


def _twice_e(node):
    # 2 * e or e * 2
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and sorted(
        (ast.unparse(node.left), ast.unparse(node.right))
    ) == ["2", "e"]


def test_the_lift_degree_is_written_once():
    # a root N/D of the curve has D | c_delta, so _lifted_roots lifts to
    # e + min(e, deg c_delta), not to 2e: mvar writes no 2 * e, only
    # _lifted_roots builds a jet ring for the root search (index_key reads
    # one for the key), and the degree the ring, the shift of the
    # coefficients and the kernel's rows stop at is one name, assigned once
    tree = MODULES["mvar"]
    assert [f"mvar.py:{node.lineno}" for node, _ in _owners(tree, _twice_e)] == []

    def calls(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    assert sorted(owner for _, owner in _owners(tree, calls("_jet_ring"))) == ["_lifted_roots", "index_key"]
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_lifted_roots")
    ring = next(node for node, _ in _owners(fn, calls("_jet_ring")))
    top = ast.unparse(ring.args[1])
    written = [
        node.value for node in ast.walk(fn)
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [top]
    ]
    assert len(written) == 1, (top, len(written))
    text = ast.unparse(written[0])
    assert [ast.unparse(node) for node in ast.walk(tree)].count(text) == 1, text
    shifts = [ast.unparse(node.args[2]) for node, _ in _owners(fn, calls("_shift"))]
    ranges = [ast.unparse(node.args[-1]) for node, _ in _owners(fn, calls("range"))]
    assert top in shifts and f"{top} + 1" in ranges, (top, shifts, ranges)


def _tests_k_against_1(node):
    # k == 1, self.k > 1, 1 != k, ...
    sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
    return len(sides) == 2 and any(getattr(side, "value", None) == 1 for side in sides) and any(
        getattr(side, "id", None) == "k" or getattr(side, "attr", None) == "k" for side in sides
    )


def test_each_kind_of_field_has_one_kernel_chosen_in_one_place():
    # FieldSpec.__init__ alone names the three kernels, once each: integers
    # mod p for prime fields, tables and coordinates for extension fields;
    # so the table builder has no prime-field branch
    kernels = {"_prime_ops", "_table_ops", "_coord_ops"}

    def names_kernel(node):
        return isinstance(node, (ast.Name, ast.Attribute)) and (
            getattr(node, "id", None) in kernels or getattr(node, "attr", None) in kernels
        )

    spec_init = next(
        fn
        for cls in MODULES["gf_core"].body
        if isinstance(cls, ast.ClassDef) and cls.name == "FieldSpec"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    )
    inside = {id(node) for node in ast.walk(spec_init)}
    uses = [
        (name, id(node) in inside, getattr(node, "attr", None) or node.id)
        for name, tree in MODULES.items()
        for node in filter(names_kernel, ast.walk(tree))
    ]
    assert sorted(uses) == [("gf_core", True, kernel) for kernel in sorted(kernels)], uses
    builders = {"_table_ops", "_powers", "_exp_cycle"}
    found = [
        f"gf_core.py:{node.lineno} ({owner})"
        for node, owner in _owners(MODULES["gf_core"], _tests_k_against_1)
        if owner in builders
    ]
    assert not found, found


def test_building_a_field_makes_no_element():
    # a field is built with only what its kernel needs: FieldSpec.__init__
    # and the kernel builders it calls neither name FieldElement nor ask the
    # field for an element, so no field keeps a list of its q elements
    builders = {"__init__", "_prime_ops", "_table_ops", "_coord_ops", "_exp_cycle", "_is_primitive", "_powers"}
    makers = {"_elems", "element", "elements", "from_index", "zero", "one"}
    spec = next(
        cls for cls in MODULES["gf_core"].body if isinstance(cls, ast.ClassDef) and cls.name == "FieldSpec"
    )
    fns = [fn for fn in spec.body if isinstance(fn, ast.FunctionDef) and fn.name in builders]
    assert sorted(fn.name for fn in fns) == sorted(builders)
    found = [
        f"gf_core.py:{node.lineno} ({fn.name})"
        for fn in fns
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "FieldElement"
        or isinstance(node, ast.Attribute) and node.attr in makers and isinstance(node.ctx, ast.Load)
    ]
    assert not found, found


def _holds_t(fn):
    """A test of whether an expression in fn is T: Poly.x(...), or a name
    that fn binds to it directly or through plain assignments of one name
    to another, pairwise in tuples too."""
    names = set()

    def is_t(node):
        return isinstance(node, ast.Name) and node.id in names or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "x"
            and getattr(node.func.value, "id", None) == "Poly"
        )

    pairs = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
            else:
                pairs.append((target, value))
    pairs = [(target.id, value) for target, value in pairs if isinstance(target, ast.Name)]
    while True:
        new = {name for name, value in pairs if name not in names and is_t(value)}
        if not new:
            return is_t
        names |= new


def test_t_is_raised_to_the_field_order_in_one_function():
    # upoly powers T itself (T^q mod f, the start of gcd(T^q - T, f)) only
    # in _frobenius; the distinct-degree split takes its roots from
    # _root_indices, or the rational part whole above the root cutoff, and
    # never powers T on its own
    tree = MODULES["upoly"]
    fns = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    powering_t = []
    for name, fn in fns.items():
        is_t = _holds_t(fn)
        powering_t += [
            name
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "poly_powmod"
            and node.args
            and is_t(node.args[0])
        ]
    assert powering_t == ["_frobenius"], powering_t
    ddf_calls = {
        node.func.id
        for node in ast.walk(fns["_distinct_degree_parts"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"_root_indices", "_rational_part", "_frobenius"} <= ddf_calls, ddf_calls
    assert "_equal_degree_parts" not in ddf_calls, ddf_calls

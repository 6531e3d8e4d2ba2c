"""Static checks on the library source."""

import ast
import types
from pathlib import Path

import mpmath.libmp

import brieskorn_wrt
from brieskorn_wrt import cli

PACKAGE_DIR = Path(brieskorn_wrt.__file__).parent


def _package_nodes():
    """(file name, node) for every AST node of every library module."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips asserts, so structural invariants must raise instead
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE_DIR.glob("*.py"))) >= 8
    assert not found, found


def test_spectrum_modules_never_call_t_exponent_or_ell_condition():
    # the spectrum path reads the integer chi.t_numerator (T-exponent and CS
    # value alike) and the admissible runs; a D-wide Fraction or ell_condition
    # scan must not come back.  No module defines or names a second name for
    # T (t_exponent), for Fraction (Rational) or for an mpf conversion
    # (to_mpf), or a Bernoulli table cache.
    everywhere = {"t_exponent", "to_mpf", "Rational", "_even_bernoulli_table"}
    banned = {"modularform.py": {"ell_condition"}, "topology.py": {"ell_condition"}}
    found = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node in _package_nodes()
        if any(
            getattr(node, f, None) in everywhere | banned.get(name, set())
            for f in ("id", "attr", "name", "value", "asname")
        )
    ]
    assert not found, found


def test_topology_imports_only_modular_data_from_modularform():
    # torsion, CS and spectral flow keep their own tables and read chi's
    # integer numerator, so the torsion suite never checks the S-matrix
    # tables against themselves; only verify_s_torsion reads the S side
    imported = set()
    for name, node in _package_nodes():
        if name != "topology.py" or not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        module = getattr(node, "module", None) or ""
        for alias in node.names:
            if module.endswith("modularform"):
                imported.add(alias.name)
            elif "modularform" in alias.name:
                imported.add(f"the module {alias.name}")
    assert imported == {"modular_data"}, imported


def test_library_never_references_bernoulli_polynomial():
    # L-values come from the integer power moments of chi; the O(k^2)-Fraction
    # Bernoulli-polynomial route is a test oracle only.  Names, attributes,
    # imports, definitions and strings all count as references.
    banned = "bernoulli_polynomial"
    found = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node in _package_nodes()
        if any(getattr(node, f, None) == banned for f in ("id", "attr", "name", "value"))
    ]
    assert not found, found


def _callers(function: str) -> set:
    """(file name, function name) of every library function that calls ``function``."""
    return {
        (name, node.name)
        for name, node in _package_nodes()
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and function in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    }


def test_only_the_dedekind_numerator_calls_dedekind_sum():
    # gamma, Casson, phi and the spectral-flow offset read the one integer
    # chi.dedekind_triple_numerator, which sums the integer kernel F = 12k s
    # without a Fraction per fibre; no Fraction sum over the fibres may return
    callers = _callers("_scaled_dedekind_sum")
    assert callers == {("chi.py", "dedekind_triple_numerator")}, callers
    callers = _callers("dedekind_sum")
    assert not callers, callers
    found = [
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node in _package_nodes()
        if any(
            getattr(node, f, None) == "_dedekind_triple_sum" for f in ("id", "attr", "name", "value")
        )
    ]
    assert not found, found


def test_root_tables_are_built_only_where_each_is_owned():
    # the S entries and the dominant sum read the rows of _modular_data_cached;
    # the torsion rows and jeffrey_tau's _signed_sines keep their own.  The two exact
    # elements of Z[zeta], tau_N and the Eichler limit, are power sums
    callers = _callers("root_table")
    assert callers == {
        ("modularform.py", "_modular_data_cached"),
        ("topology.py", "_torsion_tables"),
        ("wrt.py", "_signed_sines"),
    }, callers
    callers = _callers("root_power_sum")
    assert callers == {("modularform.py", "eichler_limit"), ("wrt.py", "tau_n")}, callers


def test_jeffrey_route_reads_no_chi_theta_or_dedekind_data():
    # the theorem51 suite checks tau_n against jeffrey_tau, so that route and its
    # core call nothing of tau_n's: no chi, theta vector, Eichler weight or
    # Dedekind sum.  The O(PN) surgery sum is a test oracle, defined in no module
    banned = {
        "build_chi",
        "t_numerator",
        "dedekind_triple_numerator",
        "tau_coordinates",
        "_limit_weights",
        "modular_data",
        "eichler_limit",
        "eichler_tail",
        "root_power_sum",
    }
    route = {"jeffrey_tau", "_seifert_tau", "_signed_sines"}
    called = {
        getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for name, node in _package_nodes()
        if name == "wrt.py" and isinstance(node, ast.FunctionDef) and node.name in route
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }
    assert {"_seifert_tau", "_signed_sines", "root_table"} <= called, called
    assert not called & banned, called & banned
    defined = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "rozansky_normalized"
    ]
    assert not defined, defined


def test_flat_connections_reads_its_tables_once_per_call():
    # the walk of the admissible runs reads each per-manifold table once; no
    # per-record function and no second caller may read them again
    for table in ("_spectral_flow_tables", "_torsion_tables"):
        calls = [
            (name, node.name)
            for name, node in _package_nodes()
            if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == table
        ]
        assert calls == [("topology.py", "flat_connections")], (table, calls)


def test_admissible_triples_builds_no_triple_list():
    # admissible_triples hands back the runs; gamma is their count, so no
    # tuple of all gamma triples may come back there
    tree = ast.parse((PACKAGE_DIR / "chi.py").read_text(encoding="utf-8"))
    (function,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "admissible_triples"
    ]
    called = {ast.unparse(call.func) for call in ast.walk(function) if isinstance(call, ast.Call)}
    assert called == {"EllRuns", "_admissible_runs"}, called


def test_gamma_has_one_route_through_the_admissible_runs():
    # admissible_triples is the one walk of the admissible runs; gamma is the
    # count it returns, read in chi only by admissible_count
    callers = _callers("_admissible_runs")
    assert callers == {("chi.py", "admissible_triples")}, callers
    chi_callers = {caller for caller in _callers("admissible_triples") if caller[0] == "chi.py"}
    assert chi_callers == {("chi.py", "admissible_count")}, chi_callers


def test_modularform_walks_the_admissible_runs_once_per_manifold():
    # the dominant sum reads ModularData.runs and .spans, built with the
    # cached rows from admissible_triples; no per-call walk of the runs may
    # come back, and modularform never walks _admissible_runs itself
    callers = {
        caller
        for caller in _callers("admissible_triples") | _callers("_admissible_runs")
        if caller[0] == "modularform.py"
    }
    assert callers == {("modularform.py", "_modular_data_cached")}, callers
    assert not {c for c in _callers("_admissible_runs") if c[0] == "modularform.py"}


def test_chi_keeps_the_triple_runs_private():
    # both triple sets are EllRuns built in chi and only chi knows the
    # canonical pairs; no other module imports a private name from chi
    named = {
        f"{name}:{getattr(node, 'lineno', '?')}"
        for name, node in _package_nodes()
        if name != "chi.py"
        and any(getattr(node, f, None) == "_canonical_pairs" for f in ("id", "attr", "name"))
    }
    assert not named, named
    imported = {
        (name, alias.name)
        for name, node in _package_nodes()
        if name != "chi.py" and isinstance(node, ast.ImportFrom)
        for alias in node.names
        if (getattr(node, "module", None) or "").endswith("chi") and alias.name.startswith("_")
    }
    assert not imported, imported


def test_every_exported_function_has_a_library_caller():
    # a public function that no other library function calls is surface that
    # no verb or suite reaches; a test reference belongs in tests/oracles.py.
    # Classes and constants are exempt; no function is.
    exported = [getattr(brieskorn_wrt, name) for name in brieskorn_wrt.__all__]
    functions = {f.__name__ for f in exported if callable(f) and not isinstance(f, type)}
    uncalled = {name for name in functions if not {c for c in _callers(name) if c[1] != name}}
    assert uncalled == set(), uncalled


def test_every_process_cache_names_its_traffic():
    # a cache earns its place by hits; each entry gives hits/lookups summed
    # over the timed jobs of perfbench seed 4242 at --seconds 30 (caches cold
    # per repetition) or over one run of the named suite, and the cost of a
    # miss, which is what one hit saves (timeit, best of 5, on 2 cores with
    # Python 3.11.7).  A new cache must be listed here with its measured
    # traffic and cost, and one whose hits save nothing leaves.
    cached = {
        # spectrum 60/72, verify --suite modular 200/225; 16-26 us a miss
        ("chi.py", "build_chi"),
        # spectrum 36/48, the asymptotic ladder; 116-123 us a miss at 40 digits
        ("modularform.py", "_modular_data_cached"),
        # spectrum 36/60; 23-35 us a miss at K = 3
        ("modularform.py", "eichler_tail"),
    }
    decorators = {"lru_cache", "cache", "cached_property"}
    found = {
        (name, node.name)
        for name, node in _package_nodes()
        if isinstance(node, ast.FunctionDef)
        for decorator in node.decorator_list
        if ast.unparse(getattr(decorator, "func", decorator)).split(".")[-1] in decorators
    }
    assert found == cached, found


def test_lambda_coefficients_reads_the_tail_and_phi_once_each():
    # lambda_n are one Stirling sum over the eichler_tail L-values and phi's
    # shift; the O(order^3) series re-expansion is a test oracle only
    tree = ast.parse((PACKAGE_DIR / "ohtsuki.py").read_text(encoding="utf-8"))
    (function,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "lambda_coefficients"
    ]
    called = [ast.unparse(call.func) for call in ast.walk(function) if isinstance(call, ast.Call)]
    assert (called.count("eichler_tail"), called.count("phi_invariant")) == (1, 1), called
    defined = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.FunctionDef) and node.name in {"_series_mul", "_binomial_series"}
    ]
    assert not defined, defined


def test_cli_encodes_rationals_and_complex_values_in_one_place():
    # one encoder lays every report out from the library values the runners
    # return: one routine per kind of number, _real and _complex reading
    # mpmath's raw tuples and _rational the Fraction; runners convert nothing,
    # and nothing that _pieces reaches calls nstr, enters a precision context
    # or builds JSON terms from library values (text reads the parsed JSON)
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def called(node) -> set:
        return {
            getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        }

    def callers(name) -> set:
        return {caller for caller, node in functions.items() if name in called(node)}

    def reach(*roots) -> set:
        # the functions of cli.py that the roots name, by call or reference
        found, stack = set(), [root for root in roots if root in functions]
        while stack:
            name = stack.pop()
            if name not in found:
                found.add(name)
                stack += [
                    getattr(node, "id", None) or getattr(node, "attr", None)
                    for node in ast.walk(functions[name])
                    if isinstance(node, (ast.Name, ast.Attribute))
                ]
                stack = [other for other in stack if other in functions]
        return found

    assert callers("to_str") == {"_real", "_complex"}
    # one rounding per printed decimal: to_str of the working value, with no
    # rounding to the bits of the digit count before it
    libmp_names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mpmath.libmp"
        for alias in node.names
    ]
    assert libmp_names == ["to_str"], libmp_names
    assert not callers("mpf_pos") | callers("dps_to_prec")
    assert callers("_complex") == {"_indented_json"}
    assert callers("_real") == {"_indented_json", "_flat_record"}
    assert callers("_rational") == {"_indented_json", "_ell_and_cs", "_flat_record"}
    retired = {"_json", "rational_json", "real_json", "complex_json", "_rational_text"}
    assert not retired & set(functions), retired & set(functions)
    runners = {name for name in functions if name.startswith(("_run_", "_suite_"))}
    leaves = {"_real", "_complex", "_rational", "_indented_json", "to_str", "nstr"}
    assert not {name for name in runners if called(functions[name]) & leaves}
    tables = [(spec.csv, spec.layout) for spec in cli._VERBS.values()]
    roots = [f.__name__ for csv, layout in tables for f in (csv, layout and layout[1]) if f]
    reached = reach("_pieces", *roots)
    assert {"_laid_json", "_format_text", "_flat_record", "_cs_csv", "_real"} <= reached
    for name in reached:
        banned = called(functions[name]) & {"nstr", "workdps", "workprec", "mpf", "mpc"}
        assert not banned, (name, banned)
    json_route = reach("_laid_json", *roots)
    assert "_format_text" not in json_route, json_route
    for name in json_route:
        assert "loads" not in called(functions[name]), name


def test_only_exactmath_and_cli_import_from_mpmath_libmp():
    # mpmath's raw-tuple kernels are read in two places, by names that the
    # mpmath.libmp package exports; no module reaches into libmpf, libelefun
    # or another submodule
    exported = {
        name
        for name in dir(mpmath.libmp)
        if not isinstance(getattr(mpmath.libmp, name), types.ModuleType)
    }
    importers, found = set(), []
    for name, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
            if node.module == "mpmath.libmp":
                importers.add(name)
                missing = [alias.name for alias in node.names if alias.name not in exported]
                found += [f"{name}:{node.lineno} {alias}" for alias in missing]
            elif node.module != "mpmath" or any(a.name != "mp" for a in node.names):
                found.append(f"{name}:{node.lineno} from {node.module}")
        elif isinstance(node, ast.Import):
            found += [f"{name}:{node.lineno} {a.name}" for a in node.names if "mpmath" in a.name]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("lib"):
            found.append(f"{name}:{node.lineno} .{node.attr}")
    assert importers == {"exactmath.py", "cli.py"}, importers
    assert not found, found


def test_cli_main_writes_the_report_as_a_stream():
    # main hands the pieces of the report to the one sink, _write_out; neither
    # builds the whole text, by render or by a str.join of the pieces
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("main", "_write_out"):
        called = {
            ast.unparse(call.func) for call in ast.walk(functions[name]) if isinstance(call, ast.Call)
        }
        joins = {f for f in called if f.endswith("join") and f != "os.path.join"}
        assert "render" not in called and not joins, (name, called)
        if name == "main":
            assert {"_write_out", "_pieces"} <= called, called


def test_library_lines_fit_in_100_columns():
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not found, found


def test_library_modules_have_no_unused_imports():
    # a name counts as used if the module reads it or lists it in __all__
    found, checked = [], 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        checked += len(imported)
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert checked > 0
    assert not found, found

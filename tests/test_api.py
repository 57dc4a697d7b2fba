"""The public surface: rumour.__all__ is the documented library API, and
every name the benchmark harness in perfbench/ takes from rumour resolves."""

import ast
import importlib
from pathlib import Path

import rumour

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTED = [
    "ModelParams",
    "preset_params",
    "solve_x_infinity",
    "x_infinity_closed_form",
    "clt_constants",
    "sigma_matrix",
    "sigma_from_lambda",
    "numerical_lambda_via_ode",
    "McStats",
    "iter_final_states",
    "monte_carlo",
    "verify",
    "write_replications_csv",
    "jsonio",
]


def test_all_is_the_documented_list():
    assert rumour.__all__ == DOCUMENTED


def test_every_exported_name_importable():
    namespace = {}
    exec("from rumour import *", namespace)
    for name in DOCUMENTED:
        assert namespace[name] is getattr(rumour, name)


def test_readme_library_section_lists_all():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in DOCUMENTED if f"`{name}`" not in section]
    assert not missing


def resolve(module: str, name: str):
    """What `from module import name` binds."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def rumour_uses(path: Path):
    """(kind, module, name) for every `from rumour[...] import name` in a
    file ("import"), every `mod.attr` on a rumour module it bound ("attr")
    and every `(mod, "attr", ...)` tuple ("layer"; the traced benchmark run
    wraps those attributes in timing spans)."""
    tree = ast.parse(path.read_text())
    bound, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rumour":
            for alias in node.names:
                uses.append(("import", node.module, alias.name))
                target = resolve(node.module, alias.name)
                if isinstance(target, type(rumour)):
                    bound[alias.asname or alias.name] = target.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rumour":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            uses.append(("attr", bound[node.value.id], node.attr))
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and isinstance(node.elts[0], ast.Name) and node.elts[0].id in bound
              and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            uses.append(("layer", bound[node.elts[0].id], node.elts[1].value))
    return uses


def test_perfbench_names_resolve():
    uses = []
    for name in ("workloads.py", "run.py"):
        uses += [(m, a) for _, m, a in rumour_uses(ROOT / "perfbench" / name)]
    assert ("rumour.limits", "THETA_EPS") in uses
    assert ("rumour.simulate", "HAVE_NUMBA") in uses
    assert ("rumour.clt", "fluid_trajectory") in uses
    for module, name in uses:
        resolve(module, name)


def test_cli_calls_wrapped_layers_through_module_attributes():
    # the wrappers only take effect while cli.py looks each layer function
    # up on its module at call time
    layers = {(m, a) for kind, m, a in rumour_uses(ROOT / "perfbench" / "workloads.py")
              if kind == "layer"}
    called = {(m, a) for kind, m, a in rumour_uses(ROOT / "src" / "rumour" / "cli.py")
              if kind == "attr"}
    assert ("rumour.clt", "numerical_lambda_via_ode") in layers
    assert layers <= called


def test_cli_accepts_every_benchmark_argv(monkeypatch, tmp_path):
    # the traced benchmark runs parse these argvs with build_parser(), and
    # perfbench/selftest.py (outside this suite) covers only the smoke
    # sizes.  Parsing is not enough: main also refuses a value the command
    # does not read.  The commands are stubbed, so only validation runs.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    from rumour import cli

    for name, entry in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, name, (entry[0], lambda *args: (0, ""), *entry[2:]))
    for sizes in (workloads.FULL, workloads.SMOKE):
        for cls in workloads.WORKLOADS.values():
            wl = cls(1, sizes, tmp_path)
            for argv in [op.argv for op in wl.ops()] + wl.warmup:
                assert cli.main(argv) == 0, argv

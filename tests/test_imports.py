"""Every name a ``cqsm`` module imports is used in that module, every
private helper and constant a ``cqsm`` module defines is read in the package,
every public function and class is read by the package or the benchmark, and
no module imports one from a later layer, configs are checked only where
they are built, and the sampler setting is read only where it picks the next
action.

The package root re-exports nothing: ``__init__.py`` binds only
``__version__``, and every other name is imported from the module that
defines it, never from ``cqsm`` itself nor from a module that imports it.
No module imports another's private name, and the online and offline
learners import nothing from each other.  Importing the experiment runner
loads no process pool.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cqsm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(module: str, package: list[str]) -> list[str]:
    """Module-level ``_``-prefixed functions and classes and UPPER_CASE
    constants of ``module`` that no source in ``package`` reads."""
    defined = {}
    for node in ast.parse(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            defined[node.name] = node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                defined[target.id] = node.lineno
    read = names_read(package)
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def names_read(sources: list[str]) -> set[str]:
    """Names loaded, attributes loaded and names imported anywhere in ``sources``."""
    read = set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def test_dead_definitions_are_found():
    module = ("LIMIT = 1\nSTEP: float = 0.5\n_TABLE = {}\nlower = 2\n"
              "def _used():\n    return LIMIT\ndef _unused():\n    pass\n"
              "class _Spare:\n    pass\ndef public():\n    return _used()\n")
    other = "from .mod import _TABLE\n"
    assert dead_definitions(module, [module, other]) == [
        "line 2: STEP", "line 7: _unused", "line 9: _Spare"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_dead(path):
    package = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert dead_definitions(path.read_text(encoding="utf-8"), package) == []


def root_imports(source: str) -> list[str]:
    """``line n: name`` for each name that ``from cqsm import`` in ``source``
    takes from the package root and that is not a submodule."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "cqsm"
            for alias in node.names if alias.name not in {p.stem for p in MODULES}]


def test_root_imports_are_found():
    source = ("from cqsm import online, sde\nfrom cqsm.sde import simulate\n"
              "from cqsm import run_cqsm\n")
    assert root_imports(source) == ["line 3: run_cqsm"]


def test_package_root_binds_only_the_version():
    body = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert [ast.dump(node) for node in body[1:]] == [ast.dump(ast.ImportFrom(
        module="_version", names=[ast.alias(name="__version__")], level=1))]


def all_sources() -> list[Path]:
    """The package's, the tests' and the benchmark's Python files."""
    return [path for folder in (SRC, ROOT / "tests", ROOT / "bench")
            for path in sorted(folder.glob("*.py"))]


def test_no_name_is_imported_from_the_package_root():
    found = [f"{path.relative_to(ROOT)}: {hit}" for path in all_sources()
             for hit in root_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def top_level_names(source: str) -> set[str]:
    """Names that a def, a class or an assignment binds at the top level of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def module_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) for each name that a ``from .module import`` or
    ``from cqsm.module import`` in ``source`` takes from a ``cqsm`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("cqsm."):
            module = node.module.removeprefix("cqsm.")
        else:
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names]
    return found


def misplaced_imports(source: str, homes: dict[str, set[str]]) -> list[str]:
    """``line n: module.name`` for each name that ``source`` imports from a
    ``cqsm`` module that does not define it; ``homes`` maps each module to
    the names it defines."""
    return [f"line {line}: {module}.{name}" for line, module, name in module_imports(source)
            if name not in homes[module]]


def test_misplaced_imports_are_found():
    homes = {"sde": {"NoiseSource", "BLOCK"}, "online": {"run_cqsm"}}
    source = ("from cqsm.sde import NoiseSource\nfrom .online import run_cqsm, NoiseSource\n"
              "from cqsm import sde\nfrom _oracles import run_cqsm\n"
              "from cqsm.online import BLOCK\n")
    assert misplaced_imports(source, homes) == ["line 2: online.NoiseSource",
                                                "line 5: online.BLOCK"]


def test_every_name_is_imported_from_the_module_that_defines_it():
    homes = {path.stem: top_level_names(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    found = [f"{path.relative_to(ROOT)}: {hit}" for path in all_sources()
             for hit in misplaced_imports(path.read_text(encoding="utf-8"), homes)]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    # a dunder such as __version__ is no private name
    found = [f"{path.name}: line {line}: {module}.{name}" for path in MODULES
             for line, module, name in module_imports(path.read_text(encoding="utf-8"))
             if name.startswith("_") and not name.endswith("__")]
    assert found == []


def test_the_online_and_offline_learners_import_nothing_from_each_other():
    # both drivers stand on the one learner core below them
    imports = {stem: {module for _, module, _ in module_imports(
        (SRC / f"{stem}.py").read_text(encoding="utf-8"))} for stem in ("online", "offline")}
    assert "offline" not in imports["online"] and "online" not in imports["offline"]


# the paper's objects: public for study and tested directly, though no other
# code path calls them
PAPER_OBJECTS = {"td_delta", "martingale_loss", "lagged_state_test", "q_gradient_test",
                 "hjb_residual", "estimate_discounted_return"}


def module_level_definitions(path: Path) -> set[str]:
    """Names of the functions and classes defined at the top level of ``path``."""
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_paper_object_is_still_defined():
    # an entry whose object was deleted would let a later dead name pass
    defined = set().union(*map(module_level_definitions, MODULES))
    assert sorted(PAPER_OBJECTS - defined) == []


def test_every_public_name_has_a_reader_besides_the_tests():
    readers = [p.read_text(encoding="utf-8") for p in MODULES]
    readers += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    read = names_read(readers)
    unread = [f"{path.name}: {node.name}"
              for path in MODULES for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in read | PAPER_OBJECTS]
    assert unread == []


BENCH_ONLY = {"simulate", "grad_theta_q", "psi_v", "LearnState", "cqsm_step", "q_star",
              "optimal_score"}


def test_bench_only_names_have_no_reader_in_the_package():
    """``simulate``, ``grad_theta_q``, ``psi_v``, ``LearnState``, ``cqsm_step``,
    ``q_star`` and ``optimal_score`` survive only for ``bench/``; ROADMAP
    direction 8 deletes them.  Until then no module but the defining one may
    read them, so the package already runs on the one surviving statement of
    each object."""
    readers = [f"{path.name}: {name}" for path in MODULES
               for name in sorted(BENCH_ONLY & names_read([path.read_text(encoding="utf-8")])
                                  - module_level_definitions(path))]
    assert readers == []


# the package's layers, lowest first: a module imports only modules listed
# before it (``_version`` and ``__init__`` stand outside the order)
LAYERS = ["sde", "lq", "policy", "samplers", "lq_analytic", "martingale", "learner", "online",
          "offline", "experiment", "cli"]


def upward_imports(sources: dict[str, str]) -> list[str]:
    """``importer → imported`` for each ``from .x import`` of a module in the
    importer's layer or above it."""
    rank = {name: i for i, name in enumerate(LAYERS)}
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and rank.get(node.module, -1) >= rank[name]):
                found.append(f"{name} → {node.module}")
    return found


def test_modules_import_only_lower_layers():
    layered = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.stem != "_version"}
    assert sorted(layered) == sorted(LAYERS)
    assert upward_imports(layered) == []


def validate_calls(source: str) -> list[str]:
    """``function (line n)`` for each ``.validate()`` call in ``source`` made
    outside a ``__post_init__`` method."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "validate" and function != "__post_init__"):
                found.append(f"{function} (line {child.lineno})")
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_validate_calls_are_found():
    source = ("class C:\n    def __post_init__(self):\n        self.validate()\n"
              "    def validate(self):\n        self.inner.validate()\n"
              "def run(cfg):\n    def helper():\n        cfg.validate()\n    cfg.algo.validate()\n"
              "C().validate()\n")
    assert validate_calls(source) == ["validate (line 5)", "helper (line 8)", "run (line 9)",
                                      "<module> (line 10)"]


def test_configs_are_validated_only_when_built():
    # a config checks itself in __post_init__, so a call elsewhere is redundant
    calls = [f"{path.name}: {call}" for path in MODULES
             for call in validate_calls(path.read_text(encoding="utf-8"))]
    assert calls == []


def sampler_reads(source: str) -> list[tuple[str, int]]:
    """(``Class.function``, line) for each read of a ``.sampler`` attribute in
    ``source``, named by the function it sits in (``<module>`` outside any)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "sampler"
                    and isinstance(child.ctx, ast.Load)):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_sampler_reads_are_found():
    source = ("class C:\n    def __post_init__(self):\n        return self.sampler\n"
              "def pick(cfg):\n    def inner():\n        return cfg.sampler\n"
              "    cfg.sampler = 1\n    return cfg.algo.sampler\n"
              "KIND = C().sampler\n")
    assert sampler_reads(source) == [("C.__post_init__", 3), ("pick.inner", 6), ("pick", 8),
                                     ("<module>", 9)]


# the one dispatch from the sampler setting to the next action and, beside
# the draw, its law, the config's own check, the first action's "direct_sde
# keeps a0" rule, and the CLI's ``--sampler`` flag, which picks the target and
# the Langevin continuation while the draws themselves go through next_action
SAMPLER_READERS = {"learner.py: AlgoConfig.__post_init__", "learner.py: next_action",
                   "learner.py: action_law", "learner.py: initial_action",
                   "cli.py: _cmd_sample"}


def test_the_sampler_is_read_only_by_the_one_dispatch():
    reads = [f"{path.name}: {scope} (line {line})" for path in MODULES
             for scope, line in sampler_reads(path.read_text(encoding="utf-8"))
             if f"{path.name}: {scope}" not in SAMPLER_READERS]
    assert reads == []


def loop_assignments(source: str, function: str, names: tuple[str, ...]) -> list[int]:
    """Lines of the assignments to the tuple ``names`` inside a loop of the
    top-level function ``function`` of ``source``."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return sorted({node.lineno for loop in ast.walk(body) if isinstance(loop, (ast.For, ast.While))
                   for node in ast.walk(loop) if isinstance(node, ast.Assign)
                   and any(isinstance(target, ast.Tuple)
                           and [getattr(name, "id", None) for name in target.elts] == list(names)
                           for target in node.targets)})


def test_loop_assignments_are_found():
    source = ("def f(x0, a0):\n    x, a = x0, a0\n    for z in x0:\n        x, a = x + z, a\n"
              "        a, x = x, a\n        while z:\n            x, a = 1, 2\n"
              "    y = x, a = 1, 2\n"
              "def g(x, a):\n    for z in x:\n        x, a = z, z\n")
    assert loop_assignments(source, "f", ("x", "a")) == [4, 7]


def test_simulate_blocks_holds_one_euler_step():
    # scalar and batch rollouts store their rows differently but share the one
    # step statement; the start's own (x, a) assignments sit outside the loop
    source = (SRC / "sde.py").read_text(encoding="utf-8")
    assert len(loop_assignments(source, "simulate_blocks", ("x", "a"))) == 1


def test_importing_the_experiment_runner_loads_no_process_pool():
    # only run --parallel > 1 uses the pool; its modules would cost every
    # other process start-up time and memory
    probe = ("import sys, cqsm.experiment; print(sorted({'concurrent.futures.process', "
             "'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"

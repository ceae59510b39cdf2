"""Rules of the source layout, read from the package's syntax trees.

Only the command-line front end imports click, and it catches no error
that it cannot name: a bad option reaches it as experiments.ConfigError,
and anything else is a crash.  Every check's pass is the comparison of
its value with its threshold.  The array special functions are called
once per array, never once per item of a loop.  Every run sizes itself
against the memory budget.  Every draw comes from the counter-based keys
of one (master seed, stream id, counter) triple: numpy.random is not
used, and no seed is shifted to reach another stream.
"""

import ast
from pathlib import Path

import pytest

import busemann_lab

PACKAGE = Path(busemann_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_only_cli_imports_click(path):
    if path.name == "cli.py":
        return
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not [n for n in names if n.split(".")[0] == "click"], (
            f"{path.name}:{node.lineno} imports click"
        )


def test_cli_catches_no_value_error():
    for node in ast.walk(_tree(PACKAGE / "cli.py")):
        if not isinstance(node, ast.ExceptHandler):
            continue
        assert node.type is not None, f"cli.py:{node.lineno}: bare except"
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            assert ast.unparse(exc) not in ("ValueError", "Exception", "BaseException"), (
                f"cli.py:{node.lineno} catches {ast.unparse(exc)}"
            )


def test_every_check_compares_value_and_threshold():
    # _check(name, ref, value, cmp, threshold) with cmp one of operator's
    # orderings; no call site hands over a pass of its own.
    calls = [
        node for node in ast.walk(_tree(PACKAGE / "experiments.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check"
    ]
    assert calls
    for call in calls:
        assert len(call.args) == 5 and not call.keywords, f"line {call.lineno}"
        assert ast.unparse(call.args[3]) in ("lt", "le", "gt", "ge"), f"line {call.lineno}"


# Each takes an array, or a stack of rows, and runs its own loop over it;
# a loop over field rows draws them as blocks with log_weight_block, and a
# loop over jump-process samples couples them with coupling_gaps.
ARRAY_FUNCTIONS = {"reg_inc_gamma", "reg_inc_beta", "trigamma", "poisson_dispersion",
                   "ks_one_sample", "ks_two_sample", "pearson", "log_weight_row",
                   "zero_temp_couple"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_array_function_called_per_item(path):
    for loop in ast.walk(_tree(path)):
        if not isinstance(loop, LOOPS):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and _called_name(node) in ARRAY_FUNCTIONS:
                raise AssertionError(
                    f"{path.name}:{node.lineno} calls {_called_name(node)} inside the "
                    f"loop of line {loop.lineno}; pass it the whole array"
                )


# _fits refuses a run over the memory budget; the other two call it with
# their family's count.
SIZING = {"_fits", "_jump_sampler", "_cif_sizes"}


def test_every_run_sizes_itself():
    tree = _tree(PACKAGE / "experiments.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(name: str) -> set:
        return {_called_name(node) for node in ast.walk(functions[name])
                if isinstance(node, ast.Call)}

    for helper in SIZING - {"_fits"}:
        assert "_fits" in called(helper), f"{helper} does not call _fits"
    runs = [name for name in functions if name.startswith("run_")]
    assert len(runs) == 12
    for name in runs:
        assert called(name) & SIZING, f"{name} calls none of {sorted(SIZING)}"


# A seed is a key's root, not a number: seed + 1 is another run's seed.
SEED_NAMES = {"seed", "master_seed"}


def _is_seed(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id in SEED_NAMES
            or isinstance(node, ast.Attribute) and node.attr in SEED_NAMES)


def _randomness_faults(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            modules = []
        if any(m == "numpy.random" or m.startswith("numpy.random.") for m in modules):
            yield node.lineno, "imports numpy.random"
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and ast.unparse(node.value) in ("np", "numpy")):
            yield node.lineno, "uses numpy.random"
        operands = (
            [node.left, node.right] if isinstance(node, ast.BinOp)
            else [node.target] if isinstance(node, ast.AugAssign)
            else [node.operand] if isinstance(node, ast.UnaryOp) else [])
        if any(map(_is_seed, operands)):
            yield node.lineno, f"computes with a seed: {ast.unparse(node)}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_one_source_of_randomness(path):
    faults = [f"{path.name}:{line} {what}" for line, what in _randomness_faults(_tree(path))]
    assert not faults, faults


@pytest.mark.parametrize("source", [
    "import numpy.random",
    "from numpy import random",
    "from numpy.random import default_rng",
    "rng = np.random.default_rng(seed)",
    "field = WeightField(alpha, seed + 1)",
    "rng = Rng(master_seed=seed - 1, stream_id=1)",
    "base = 2 * rng.master_seed",
    "seed += 1",
    "x = -seed",
])
def test_randomness_rule_rejects(source):
    assert list(_randomness_faults(ast.parse(source)))

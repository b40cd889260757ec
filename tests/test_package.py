import ast
import importlib
import pathlib
import re
import types

import bitsiege as bs
from bitsiege import attack, model

ROOT = pathlib.Path(__file__).resolve().parents[1]

# What the pipeline, the CLI and the benchmark use; helpers only tests called are not exported.
PUBLIC = {
    "Architecture", "AttackTrace", "Conv2D", "Dataset", "Dense", "FL2R", "Flatten", "FlipRecord",
    "FloatModel", "GradientBaseline", "MaxPool", "ModelFormatError", "PartialModel", "QuantModel",
    "QuantParams", "RandomBits", "ReLU", "ReconstructionMethod", "SynthSpec", "TrainConfig",
    "TrainingDiverged", "accuracy", "accuracy_quant", "apply_flips", "compute_scale", "dequantize",
    "dequantize_model", "desk_architecture", "evaluate_flips", "flip_bit", "forward_batch",
    "gen_synthetic", "gradient", "load_dataset", "load_model", "load_qmodel", "load_trace",
    "oracle_min_abs", "quantize", "quantize_model", "reconstruct_code", "reconstruct_model",
    "run_attack", "save_dataset", "save_model", "save_qmodel", "save_trace",
    "select_gradient_bits", "select_random_bits", "select_vulnerable_bits", "simulate_recovery",
    "train",
}


def test_exported_names():
    exported = {n for n, v in vars(bs).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == PUBLIC


def test_every_module_uses_each_name_it_imports():
    # no linter runs on this code: an import left behind by a refactor shows up here
    for path in sorted(pathlib.Path(bs.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def module_level_names():
    """(name, read) for each name a module-level def, class or assignment of the package
    binds; `read`: whether another top-level statement of the package reads it, as a Name
    or an Attribute."""
    stmts = [s for path in sorted(pathlib.Path(bs.__file__).parent.glob("*.py"))
             for s in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [{n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(s)
              if isinstance(n, ast.Attribute)
              or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} for s in stmts]
    for k, s in enumerate(stmts):  # a def or class by its name, an assignment by its targets
        for t in getattr(s, "targets", [getattr(s, "target", s)]):
            name = getattr(t, "name", getattr(t, "id", ""))
            if name and not name.endswith("__"):
                yield name, any(name in r for j, r in enumerate(reads) if j != k)


def test_every_private_module_level_name_is_read_elsewhere_in_the_package():
    # a helper that a refactor left behind shows up here
    for name, read in module_level_names():
        if name.startswith("_"):
            assert read, name


def test_every_public_module_level_name_is_read_elsewhere_in_the_package_or_exported():
    # a public helper that only tests call shows up here; `cli.main` looks the `cmd_*`
    # handlers up by name
    unread = [name for name, read in module_level_names()
              if not (read or name.startswith(("_", "cmd_")) or name in PUBLIC)]
    assert unread == []


def test_every_name_the_readme_puts_in_backticks_resolves():
    # README names entry points and leaves the rules to their docstrings; this keeps the
    # names it gives from drifting. `module.name` for a module of the package, and
    # `Workspace.name` or `_FlipPass.name` for a class attribute, call arguments and file
    # names (`model.py`) aside.
    owners = {path.stem: importlib.import_module(f"bitsiege.{path.stem}")
              for path in pathlib.Path(bs.__file__).parent.glob("*.py")
              if path.name != "__init__.py"}
    owners.update(Workspace=model.Workspace, _FlipPass=attack._FlipPass)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = (re.fullmatch(r"(\w+)\.(\w+)(?:\(.*\))?", s)
             for s in re.findall(r"`([^`\n]+)`", readme))
    names = [m.groups() for m in spans if m and m[1] in owners and m[2] != "py"]
    assert len(names) >= 8
    assert [n for n in names if not hasattr(owners[n[0]], n[1])] == []

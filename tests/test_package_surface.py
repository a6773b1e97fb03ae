"""Every public function, class, constant, method and field of the package
is used by the program.

A top-level ``def`` or ``class`` in ``src/inode``, or a module-level
UPPER_CASE constant, counts as used when code under ``src/inode``,
``bench/`` or ``demos/`` names it: as a name read, an attribute, an
import, or a dotted string such as the benchmark's tracing targets.  A
public method of a public class counts as used when that code calls it
as an attribute or names it in a dotted string; an attribute of the same
name that is only read, such as another class's field, is not a call.  A
public property or annotated field counts as used when that code reads
it as an attribute or names it in a dotted string; a constructor keyword
is not a read.  Its own definition and the re-exports of
``__init__.py`` do not count.

A keyword parameter, one with a default, of a public top-level function
counts as used when a call in that code passes it, by keyword, by
position or through ``*``/``**``.  A call is matched by the name it
calls; a function that the code also handles as a value (as the AER
decoders are) is matched by every call of a name that is no package
function.  A parameter is named ``module.function(parameter=)``.

What only tests need is on ``KEEP``, with the reason it stays.  The files
are parsed from their text, so nothing is written to ``bench/``.

The bound step kernels, private as they are, answer to a stricter rule:
every method of theirs must be called by that code, so a second step
body that only tests run fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "inode"

KEEP = {
    "engine.sigmoid": "a generic op of the gradient engine, which the reference LSTM "
                      "cell of the tests is built from; the fused cell calls _sigmoid",
    "engine.sum_all": "a generic op of the gradient engine, which the fused steps' "
                      "reference tapes in the tests are built from",
    "events.write_aer16": "the encoder of the AER16 format, the inverse that tests "
                          "round-trip parse_aer16 through",
    "model.euler_step": "one Euler update whose f a test may replace: criterion 02 runs "
                        "it on rigged linear dynamics, and the tests' generic-op "
                        "reference of the window pass on f spelled in engine ops",
    "model.f_eval": "f(h, u) on plain arrays, which tests compare against a scalar "
                    "reimplementation",
    "synth.scale_coordinates": "the same scene on a finer grid, which tests use to show "
                               "that normalized coordinates do not depend on resolution",
    "training.parse_metrics_csv": "the inverse of metrics_csv, which tests use to show "
                                  "that the CSV round-trips exactly",
    "model.euler_step(dynamics=)": "the f that criterion 02 and the generic-op reference "
                                   "of the window pass put in place of the fused step",
    "model.euler_step(tape=)": "the tape of the tests' generic-op reference of the "
                               "window pass, whose gradients the fused step must match",
    "model.init_params(learnable_h0=)": "a store with a learnable h0 for the tests; the "
                                        "program builds one from the kind's layout",
    "lstm.init_params(bidirectional=)": "a bi-LSTM store for the tests; the program builds "
                                        "one from the kind's layout",
    "stream.fast_replay(chunk=)": "the tests show that the replay text does not depend "
                                  "on the chunk size",
}

# the classes whose methods are each kind's one step body and its helpers
KERNELS = ("model._Step", "lstm._Cell")


def _references(path):
    """``(names, attributes, calls)`` of one file: every name, attribute,
    import and dotted-string part it holds, the attributes it reads and
    the attributes it calls, each with the dotted-string parts."""
    names, attributes, calls = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            calls.add(node.func.attr)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            names.update(node.value.split("."))
            attributes.update(node.value.split("."))
            calls.update(node.value.split("."))
    return names, attributes, calls


def _constants(node):
    """The UPPER_CASE names a module-level assignment defines."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [target.id for target in targets
            if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)]


def _is_property(function):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in function.decorator_list)


def _public_definitions():
    """``(qualified name, use)`` of every public top-level definition and
    constant (use "name"), of every public property and annotated field of
    a public class ("read"), and of every other public method of one
    ("call")."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            for name in _constants(node):
                yield f"{path.stem}.{name}", "name"
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield f"{path.stem}.{node.name}", "name"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        name, use = member.name, "read" if _is_property(member) else "call"
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        name, use = member.target.id, "read"
                    else:
                        continue
                    if not name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{name}", use


def _program_files():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py"),
             *(ROOT / "demos").glob("*.py")]
    return [path for path in files if path != PACKAGE / "__init__.py"]


def _keyword_parameters():
    """``(qualified name, function, parameter, position)`` of every keyword
    parameter of a public top-level function; ``position`` is None for a
    keyword-only one."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for position, arg in enumerate(positional[first:], first):
                yield f"{path.stem}.{node.name}({arg.arg}=)", node.name, arg.arg, position
            for arg in args.kwonlyargs:
                yield f"{path.stem}.{node.name}({arg.arg}=)", node.name, arg.arg, None


def _passes(call, parameter, position):
    keywords = {keyword.arg for keyword in call.keywords}
    return (parameter in keywords or None in keywords
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or (position is not None and len(call.args) > position))


def test_every_keyword_parameter_is_passed_or_has_a_reason():
    calls, values = {}, set()
    for path in _program_files():
        tree = ast.parse(path.read_text(), str(path))
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
                called.add(id(func))
        values.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      and id(node) not in called)
    parameters = list(_keyword_parameters())
    functions = {function for _, function, _, _ in parameters}
    assert len(functions) > 10
    unknown = [call for name, found in calls.items() if name not in functions for call in found]
    unused = [name for name, function, parameter, position in parameters
              if not any(_passes(call, parameter, position) for call in
                         calls.get(function, []) + (unknown if function in values else []))]
    assert sorted(unused) == sorted(name for name in KEEP if name.endswith("=)"))


def test_every_public_definition_has_a_caller_or_a_reason():
    refs = [_references(path) for path in _program_files()]
    used = {use: set().union(*(ref[k] for ref in refs))
            for k, use in enumerate(("name", "read", "call"))}
    definitions = list(_public_definitions())
    assert {use for _, use in definitions} == set(used)
    unused = [name for name, use in definitions if name.rsplit(".", 1)[1] not in used[use]]
    assert sorted(unused) == sorted(name for name in KEEP if not name.endswith("=)"))


def test_every_method_of_a_step_kernel_is_called_by_the_program():
    methods = []
    for kernel in KERNELS:
        module, name = kernel.split(".")
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        [cls] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name]
        methods += [f"{kernel}.{member.name}" for member in cls.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("__")]
    assert len(methods) > 5
    called = {node.func.attr for path in _program_files()
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert [method for method in methods if method.rsplit(".", 1)[1] not in called] == []

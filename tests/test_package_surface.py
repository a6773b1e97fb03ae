"""Every public function and class of the package has a caller in the program.

A top-level ``def`` or ``class`` in ``src/inode`` counts as used when code
under ``src/inode``, ``bench/`` or ``demos/`` names it: as a name, an
attribute, an import, or a dotted string such as the benchmark's tracing
targets.  Its own definition and the re-exports of ``__init__.py`` do not
count.  What only tests need is on ``KEEP``, with the reason it stays.
The files are parsed from their text, so nothing is written to ``bench/``.
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
    "model.f_eval": "f(h, u) on plain arrays, which tests compare against a scalar "
                    "reimplementation",
    "synth.scale_coordinates": "the same scene on a finer grid, which tests use to show "
                               "that normalized coordinates do not depend on resolution",
    "training.parse_metrics_csv": "the inverse of metrics_csv, which tests use to show "
                                  "that the CSV round-trips exactly",
}


def _names_used(path):
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            used.update(node.value.split("."))
    return used


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}"


def _program_files():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py"),
             *(ROOT / "demos").glob("*.py")]
    return [path for path in files if path != PACKAGE / "__init__.py"]


def test_every_public_definition_has_a_caller_or_a_reason():
    used = set().union(*map(_names_used, _program_files()))
    definitions = list(_public_definitions())
    assert definitions
    unused = [name for name in definitions if name.split(".")[1] not in used]
    assert sorted(unused) == sorted(KEEP)

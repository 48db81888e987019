"""Every public function and class of the package has a consumer.

A consumer is a reference by name in the package (outside
``__init__.py``, whose re-exports call nothing), in a demo or in the
benchmark harness.  A public name that only tests call stays only as a
reference the tests compare the program against, listed here with that
test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bcsjj"

# name -> (test file, test function) that compares the program against it
REFERENCES = {
    "commutant_projection": ("test_properties.py", "test_contact_states_are_the_dephased_bulk_states"),
    "ness_map": ("test_ness.py", "test_projection_map_and_closed_form_agree"),
    "lambda_first_order": ("test_perturbation.py", "test_expansions_match_solver_to_first_order"),
    "current_first_order": ("test_perturbation.py", "test_expansions_match_solver_to_first_order"),
    "frequency_first_order": ("test_perturbation.py", "test_expansions_match_solver_to_first_order"),
    "printed_first_order": ("test_perturbation.py", "test_printed_block_disagrees"),
}


def _public_definitions():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            is_definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_definition and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _referenced(tree):
    """Every name that a tree reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _consumer_sources():
    yield from (p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    yield from (ROOT / "demos").glob("*.py")
    yield from (p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py")


def test_every_public_name_has_a_consumer_or_is_a_test_reference():
    consumed = set()
    for path in _consumer_sources():
        consumed |= _referenced(ast.parse(path.read_text()))
    unconsumed = _public_definitions() - consumed
    assert unconsumed == set(REFERENCES), sorted(unconsumed ^ set(REFERENCES))


def test_each_reference_is_compared_against_in_its_test():
    for name, (filename, test_name) in REFERENCES.items():
        tree = ast.parse((ROOT / "tests" / filename).read_text())
        (test,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == test_name]
        assert name in _referenced(test), (name, filename, test_name)

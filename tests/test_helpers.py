"""The plain references in helpers.py stay in use by the tests."""
import ast
import pathlib

TESTS = pathlib.Path(__file__).parent


def names(tree):
    """Every name and attribute name read anywhere in an AST."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_plain_reference_is_used():
    # a helper counts as used when a test module names it, or a used helper does
    helpers = ast.parse((TESTS / "helpers.py").read_text())
    uses = {
        node.name: names(node)
        for node in helpers.body
        if isinstance(node, ast.FunctionDef)
    }
    used = set()
    for path in TESTS.glob("test_*.py"):
        used |= names(ast.parse(path.read_text())) & uses.keys()
    frontier = list(used)
    while frontier:
        new = uses[frontier.pop()] & uses.keys() - used
        used |= new
        frontier += new
    plain = {name for name in uses if name.startswith("plain_")}
    assert plain, "helpers.py defines no plain references"
    assert sorted(plain - used) == []

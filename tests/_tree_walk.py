"""Depth-first traversal of a structural decomposition tree, for the tests."""


def walk(node):
    """The node, then every node below it, depth first, children in order."""
    yield node
    for child in node.children:
        yield from walk(child)

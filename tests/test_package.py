import ast
import inspect

import swinfer


def test_all_lists_every_name_bound_from_a_submodule():
    """``from swinfer import *`` gives every public name that the package
    imports from its modules, and every name it lists exists."""
    tree = ast.parse(inspect.getsource(swinfer))
    bound = {alias.asname or alias.name
             for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    public = {name for name in bound if not name.startswith("_")}
    assert public - set(swinfer.__all__) == set()
    assert len(set(swinfer.__all__)) == len(swinfer.__all__)
    for name in swinfer.__all__:
        assert hasattr(swinfer, name), name

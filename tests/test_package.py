import types

import dmpcqp


def test_star_import_exports_the_listed_names_and_no_submodule():
    namespace = {}
    exec("from dmpcqp import *", namespace)  # raises on a name that is gone
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(dmpcqp.__all__)
    assert len(dmpcqp.__all__) == len(exported)
    assert [name for name in exported
            if isinstance(namespace[name], types.ModuleType)] == []
    assert {"WorkingSetFactor", "FactorCache"} <= exported


def test_condense_is_the_submodule():
    import dmpcqp.condense as m

    assert isinstance(m, types.ModuleType)
    assert m.MAX_FACTORS == 256

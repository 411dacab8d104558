"""Hypothesis profiles: one tier-1 verdict per tree, and a wider search outside it.

``tier1``, the default, derandomizes every property test and keeps no example
database: a tree runs the same examples on every machine, and a failure that
one machine once found is not replayed only there.  ``explore``
(``pytest --hypothesis-profile=explore``) draws fresh random examples, uses the
example database, and runs each property test on EXPLORE_FACTOR times its own
``max_examples``, with the same bounds.  Both start from Hypothesis' built-in
``default`` profile, so a CI runner (where Hypothesis would load its ``ci``
profile) runs the same settings as a workstation.
"""

import pytest
from hypothesis import is_hypothesis_test, settings

#: Multiplier on each property test's ``max_examples`` under the ``explore`` profile.
EXPLORE_FACTOR = 10

_BASE = settings.get_profile("default")
settings.register_profile("tier1", _BASE, derandomize=True, database=None, print_blob=True)
settings.register_profile("explore", _BASE, print_blob=True)
settings.load_profile("tier1")  # ``--hypothesis-profile`` loads its profile after this


def pytest_collection_modifyitems(items):
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        if not (isinstance(item, pytest.Function) and is_hypothesis_test(item.obj)):
            continue
        fn = getattr(item.obj, "__func__", item.obj)  # one function for every parametrized item
        if fn not in scaled:
            scaled.add(fn)
            own = fn._hypothesis_internal_use_settings  # as Hypothesis' pytest plugin reads it
            fn._hypothesis_internal_use_settings = settings(
                own, max_examples=EXPLORE_FACTOR * own.max_examples)

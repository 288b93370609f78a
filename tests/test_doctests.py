"""The examples in the package's docstrings, run as tests."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import kbproj

MODULES = sorted(info.name for info in pkgutil.iter_modules(kbproj.__path__, "kbproj."))


def test_every_module_doctest_passes():
    failed = {}
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert failed == {}
    # algebra 6, complexes 27 (HomQuotient 8, quotient 7, homotopy_inverse 5,
    # is_null_homotopic 4, _chain_map 3), gamma 13 (is_shifted_projective 3,
    # projective_vertex 1), linalg 1; fewer means some were not collected
    assert attempted >= 47

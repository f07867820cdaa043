"""Package surface: every exported name resolves."""

from __future__ import annotations

import submerge


def test_all_names_resolve_once():
    assert len(submerge.__all__) == len(set(submerge.__all__))
    missing = [name for name in submerge.__all__ if not hasattr(submerge, name)]
    assert missing == []
    namespace: dict = {}
    exec("from submerge import *", namespace)
    assert set(submerge.__all__) <= set(namespace)

"""Tests for the package's public name list."""

from __future__ import annotations

import echolat as el


def test_every_exported_name_resolves():
    for name in el.__all__:
        assert hasattr(el, name), name


def test_exported_names_are_unique():
    assert len(el.__all__) == len(set(el.__all__))

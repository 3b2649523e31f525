"""Run the docstring examples of every library module."""

import doctest
import importlib

import pytest

MODULES = ("symgrp", "spinalg", "triang", "curvelab", "polysect", "poset", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    module = importlib.import_module(f"artifact.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0

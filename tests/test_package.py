"""The package's public surface: `weylgram.<name>` loads its module on first
access and is the same object as in that module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylgram

# The public names and the module each one lives in.
HOMES = {
    "ring": "Monomial ParseError Polynomial TruncatedSeries falling_factorial from_falling_factorial_basis "
    "monomial parse_polynomial poly_sum sym to_falling_factorial_basis",
    "grammar": "GenSequence GenerationRecord Grammar P_FAMILY STIRLING_FAMILY derive derive_chain derive_n "
    "enumerate_generations generation_sum parse_grammar shift_apply",
    "weyl": "Contraction ContractionStats NormalForm WeylWord contraction_stats enumerate_contractions "
    "nf_multiply normal_order normal_order_p wick_sum",
    "bijections": "contraction_to_seq_p contraction_to_seq_stirling enumerate_growth_sequences "
    "seq_to_contraction_p seq_to_contraction_stirling",
}


def test_all_names_every_public_name_and_the_two_modules():
    names = [name for text in HOMES.values() for name in text.split()]
    assert weylgram.__all__ == [*names, "numbers", "verify"]
    assert weylgram.__version__ == "0.1.0"


@pytest.mark.parametrize("module", HOMES)
def test_each_name_is_the_object_in_its_home_module(module):
    home = importlib.import_module("weylgram." + module)
    for name in HOMES[module].split():
        assert getattr(weylgram, name) is getattr(home, name), name


def test_module_names_are_the_modules():
    assert weylgram.numbers is sys.modules["weylgram.numbers"]
    assert weylgram.verify is sys.modules["weylgram.verify"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from weylgram import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(weylgram.__all__)
    assert all(namespace[name] is getattr(weylgram, name) for name in namespace)


def test_unknown_attribute_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'weylgram' has no attribute 'no_such_name'"):
        weylgram.no_such_name
    # a submodule that is not a public name is left to the import system
    with pytest.raises(AttributeError, match="'weyl'"):
        weylgram.__getattr__("weyl")
    assert not hasattr(weylgram, "_no_such_private_name")


def test_dir_lists_every_public_name():
    listed = dir(weylgram)
    assert set(weylgram.__all__) <= set(listed)
    assert {"__all__", "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_there_is_one_suite_table():
    from weylgram import suites, verify

    assert verify.SUITES is suites.SUITES


def test_a_fresh_import_loads_only_what_it_reads():
    code = (
        "import sys, weylgram\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('weylgram'))\n"
        "print(loaded())\n"
        "weylgram.Polynomial\n"
        "print(loaded())\n"
        "weylgram.normal_order\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(weylgram.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['weylgram']",
        "['weylgram', 'weylgram.ring']",
        "['weylgram', 'weylgram.ring', 'weylgram.weyl']",
    ]

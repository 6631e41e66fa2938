"""A seeded draw of the parse fuzzer's inputs: a shipped config with one
number mutated, or with one of the structural changes, parses, or is
refused by ConfigError naming the mutated key or a block, within its
budget. ``python tests/fuzz_configs.py`` runs the full sweep."""

import random

import pytest

import fuzz_configs

DRAW = random.Random(7).sample(fuzz_configs.mutated_numbers(), 50) + fuzz_configs.structural()


@pytest.mark.parametrize("name, key, value, text", DRAW,
                         ids=[f"{name[:-4]}:{key}={value!r}" for name, key, value, _ in DRAW])
def test_a_mutated_number_parses_or_is_refused_by_name(tmp_path, name, key, value, text):
    assert fuzz_configs.broken_rule(key, text, str(tmp_path)) is None

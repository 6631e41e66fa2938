"""Parse the shipped configs with one number mutated at a time.

Run from the repository root:

    python tests/fuzz_configs.py

Each input is a shipped config that parses as shipped, with one number
replaced by one of VALUES: the value of a [surface], [target] or [run]
key, or one parameter of a [caps] map spec, named ``caps.<cap>.<param>``.
Five structural inputs follow: the torus config with a duplicate key, a
duplicate block, a missing block, an unknown map kind or overlapping caps.
``parse_config`` must return or raise ConfigError within BUDGET seconds,
never another exception. A refusal names the mutated ``block.key``; one
that another key's check or a library check raises names at least a
block at its head, as ``surface:`` or ``run.probe_radius:`` do. The
script parses every input, prints each that breaks a rule with its
message, then the count, and exits 1 if any does.
``tests/test_config_fuzz.py`` parses a seeded draw of 50 mutated numbers
and every structural input in the tier-1 run. Pytest does not collect this file.
"""

import os
import re
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
BLOCKS = ("surface", "caps", "target", "run")
# keys whose values are not numbers
NOT_NUMBERS = {"target.family", "run.checks", "run.strict"}
# nan, the infinities, a huge and a tiny float, an integer past 64 bits,
# zero, minus one, empty, text and a complex value where a real one belongs
VALUES = ("nan", "inf", "-inf", "1e300", "1e-300", "12345678901234567890", "0", "-1", "", "text",
          "1+2j")
BUDGET = 1.0  # seconds per input


class _OverBudget(Exception):
    pass


def _lines(text: str):
    """(block, key, line index) of every key = value line of the text."""
    block = None
    for i, line in enumerate(text.splitlines()):
        head = re.match(r"\[(\w+)\]", line)
        if head:
            block = head.group(1)
        elif block and not line.startswith("#") and "=" in line:
            yield block, line.split("=", 1)[0].strip(), i


def inputs() -> list:
    """(name, mutated key, value, config text) of every input, in a fixed
    order: the mutated numbers, then the structural cases."""
    return mutated_numbers() + structural()


def mutated_numbers() -> list:
    """The inputs with one number mutated: the shipped configs that parse,
    their numbers, then VALUES."""
    from faberforms.config import ConfigError, parse_config

    out = []
    for name in sorted(os.listdir(CONFIGS)):
        path = os.path.join(CONFIGS, name)
        try:
            parse_config(path)
        except ConfigError:
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        for block, key, i in _lines(text):
            if block == "caps":
                # each param=value token after the map kind
                tokens = lines[i].split("=", 1)[1].split()
                for j, tok in enumerate(tokens[1:], 1):
                    param = tok.split("=", 1)[0]
                    for value in VALUES:
                        spec = " ".join(tokens[:j] + [f"{param}={value}"] + tokens[j + 1:])
                        new = lines[:i] + [f"{key} = {spec}"] + lines[i + 1:]
                        out.append((name, f"caps.{key}.{param}", value, "\n".join(new) + "\n"))
            elif block in BLOCKS and f"{block}.{key}" not in NOT_NUMBERS:
                for value in VALUES:
                    new = lines[:i] + [f"{key} = {value}"] + lines[i + 1:]
                    out.append((name, f"{block}.{key}", value, "\n".join(new) + "\n"))
    return out


def structural() -> list:
    """The structural inputs, each a change to the torus config with the
    key or block its refusal must name: a duplicate key, a duplicate
    block, a missing block, an unknown map kind and overlapping caps."""
    name = "torus_two_caps.cfg"
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
        text = fh.read()
    lower = "lower = affine scale=0.11 offset=0.39+0.33j"
    assert "[run]\nM = 10\n" in text and lower in text
    cases = [
        ("run.m", "duplicate key", text.replace("M = 10\n", "M = 10\nM = 12\n")),
        ("run", "duplicate block", text + "\n[run]\nseed = 6\n"),
        ("run", "missing block", text.split("[run]")[0]),
        ("caps.lower", "unknown map kind", text.replace(lower, "lower = moebius scale=0.11")),
        ("caps", "overlapping caps",
         text.replace(lower, lower + "\nbeside = affine scale=0.11 offset=0.45+0.33j")),
    ]
    return [(name, key, value, new) for key, value, new in cases]


def broken_rule(key: str, text: str, directory: str) -> str | None:
    """None when parsing the text keeps the rules, else what went wrong."""
    from faberforms.config import ConfigError, parse_config

    path = os.path.join(directory, "fuzz.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    def over(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, over)
    signal.setitimer(signal.ITIMER_REAL, BUDGET)
    try:
        parse_config(path)
    except ConfigError as exc:
        message = str(exc)
        if key not in message and message.split(".", 1)[0].split(":", 1)[0] not in BLOCKS:
            return f"a refusal that names neither {key} nor a block: {message}"
    except _OverBudget:
        return f"ran past its budget of {BUDGET} s"
    except Exception as exc:  # any other exception breaks the rule
        return f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return None


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cases = inputs()
    broken = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, key, value, text in cases:
            why = broken_rule(key, text, directory)
            if why is not None:
                broken += 1
                print(f"{name} {key} = {value!r}: {why}")
    print(f"{broken} of {len(cases)} inputs break a rule")
    return int(broken > 0)


if __name__ == "__main__":
    sys.exit(main())

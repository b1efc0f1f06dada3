"""The numeric literals hypothesis harvests from src/noisy_sqp: their count and sha256.

    PYTHONPATH=src python tests/harvested_literals.py

Hypothesis draws part of a test's numbers from the numeric literals of the
loaded local modules, so a change that brings a literal into src/noisy_sqp or
takes one out re-draws the examples of
`test_hostile_problem_ends_in_a_status_without_a_warning`.  The one printed
line differs between two trees exactly when their harvested sets do.  It reads
"not computed" when this hypothesis has no `constants_from_module`.
"""

import hashlib
import importlib
import pkgutil

import noisy_sqp


def main():
    try:
        from hypothesis.internal.constants_ast import constants_from_module
    except ImportError:
        print("harvested literals: not computed")
        return
    ints, floats = set(), set()
    modules = [noisy_sqp] + [importlib.import_module(f"noisy_sqp.{info.name}")
                             for info in pkgutil.iter_modules(noisy_sqp.__path__)]
    for module in modules:
        constants = constants_from_module(module)
        ints |= constants.integers
        floats |= constants.floats
    digest = hashlib.sha256(repr((sorted(ints), sorted(floats))).encode()).hexdigest()
    print(f"harvested literals: {len(ints)} ints, {len(floats)} floats, sha256 {digest}")


if __name__ == "__main__":
    main()

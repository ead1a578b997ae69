"""Lines-of-code accounting for the Table-1 model-size comparison.

Counts non-blank, non-comment source lines — of Python modules (the
executable specification/architecture models) and of generated assembly
listings (the implementation model).
"""

import inspect
import pathlib


def count_source_lines(text, comment_prefixes=("#", ";")):
    """Count non-blank lines that are not pure comments."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if any(stripped.startswith(p) for p in comment_prefixes):
            continue
        count += 1
    return count


def module_loc(module):
    """LoC of one imported Python module."""
    return count_source_lines(inspect.getsource(module))


def modules_loc(modules):
    """Total LoC over several imported modules (deduplicated)."""
    seen = set()
    total = 0
    for module in modules:
        if module.__name__ in seen:
            continue
        seen.add(module.__name__)
        total += module_loc(module)
    return total


def package_loc(package):
    """Total LoC of every ``.py`` file under a package's directory,
    whether or not this process has imported it."""
    root = pathlib.Path(package.__file__).parent
    return sum(
        count_source_lines(path.read_text(encoding="utf-8"))
        for path in root.rglob("*.py")
    )

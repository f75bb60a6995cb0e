#!/usr/bin/env python3
"""Print every field that differs between two JSON files as old -> new.

Works on two ``ar1mc mc`` reports or on two copies of
``tests/golden_reports.json``: nested keys are joined with dots and list
items named by their index.  A field present on one side only prints as
``<absent>`` on the other.  Exits 1 when anything differs, else 0.

Usage: python scripts/report_diff.py OLD NEW
"""

import json
import sys

_ABSENT = "<absent>"


def flatten(obj, prefix=""):
    """Leaves of a JSON value keyed by dotted paths."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def moved_fields(old: dict, new: dict) -> list:
    """``key: old -> new`` for each key of two flattened values that differs.

    Values compare by ``repr``, so NaN equals NaN and 1 differs from 1.0.
    """
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = repr(old.get(key, _ABSENT)), repr(new.get(key, _ABSENT))
        if a != b:
            lines.append(f"{key}: {a} -> {b}")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old, new = (flatten(json.load(open(path))) for path in argv)
    lines = moved_fields(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} field(s) moved", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

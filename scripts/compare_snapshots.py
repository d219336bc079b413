#!/usr/bin/env python3
"""Print the output fields that differ between two snapshot_outputs.py directories.

Usage: python3 scripts/compare_snapshots.py A B

Each file is read as values, not bytes:

- a ``.json`` file as a tree, one field per JSON path, with list indices
  written ``[*]`` so that a list is one field (``spectrum[*]``);
- a ``.csv`` file with a ``key,value`` header as one field per key, with
  numeric key parts written ``*`` (``regressions.*.linear.a1``);
- any other ``.csv`` file as one field per column, over its rows.

For each field with a differing value the script prints the file, the field,
how many of its values differ and the largest absolute change among the
numeric ones (``-`` when only text, or the presence of a value, differs).
Beside a numeric change it prints that change as a fraction of the field's
largest |value| in the first directory's file, so that a change can be read
against the size of what it changed.
A file found in one directory only is named as such. The exit status is 0
whatever differs.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _json_leaves(value, path: str, field: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _json_leaves(item, f"{path}.{key}" if path else key, f"{field}.{key}" if field else key, out)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _json_leaves(item, f"{path}[{k}]", f"{field}[*]", out)
    else:
        out[path] = (field, value)


def _csv_leaves(text: str) -> dict:
    header, *rows = csv.reader(text.splitlines())
    if header == ["key", "value"]:
        return {
            key: (".".join("*" if part.isdigit() else part for part in key.split(".")), _number(value))
            for key, value in rows
        }
    return {
        f"{k}.{column}": (column, _number(value))
        for k, row in enumerate(rows)
        for column, value in zip(header, row)
    }


def leaves(path: Path) -> dict:
    """{value path: (field, value)} of one output file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return _csv_leaves(text)
    out: dict = {}
    _json_leaves(json.loads(text), "", "", out)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    if _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _scale(values: dict, field: str) -> float:
    """The largest |value| of a field's numeric values; 0 when it has none."""
    return max(
        (abs(v) for f, v in values.values() if f == field and _is_number(v) and not math.isnan(v)),
        default=0.0,
    )


def changed_fields(a: Path, b: Path) -> dict:
    """{field: (count of differing values, largest absolute change or None, scale)} of one file pair.

    The scale is the field's largest |value| in ``a``.
    """
    old, new = leaves(a), leaves(b)
    fields: dict = {}
    for path in old.keys() | new.keys():
        field = (old.get(path) or new[path])[0]
        before = old.get(path, (field, None))[1]
        after = new.get(path, (field, None))[1]
        if path in old and path in new and _same(before, after):
            continue
        count, largest = fields.get(field, (0, None))
        if _is_number(before) and _is_number(after):
            change = abs(after - before)
            largest = change if largest is None else max(largest, change)
        fields[field] = (count + 1, largest)
    return {field: (count, largest, _scale(old, field)) for field, (count, largest) in fields.items()}


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per changed field, per file found in one directory only, and a summary."""
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    lines = [f"{name}: only in {dir_a}" for name in sorted(names_a - names_b)]
    lines += [f"{name}: only in {dir_b}" for name in sorted(names_b - names_a)]
    differing = 0
    for name in sorted(names_a & names_b):
        if (dir_a / name).read_bytes() == (dir_b / name).read_bytes():
            continue
        differing += 1
        for field, (count, largest, scale) in sorted(changed_fields(dir_a / name, dir_b / name).items()):
            size = "-" if largest is None else f"{largest:.3g}"
            if largest is not None and scale:
                size += f" ({largest / scale:.3g} of its largest |value|)"
            lines.append(f"{name}: {field}: {count} changed, largest change {size}")
    lines.append(f"{differing} of {len(names_a & names_b)} common files differ in bytes")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.splitlines()[2])
    print("\n".join(compare(Path(sys.argv[1]), Path(sys.argv[2]))))

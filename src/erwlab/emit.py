"""Deterministic CSV/JSON writers shared by the CLI.

CSV floats are written with 17 significant digits and JSON floats as
Python's shortest round-trip repr, so doubles round-trip exactly either
way; metadata is key-sorted ('#'-prefixed lines in CSV, a "_meta" object
in JSON) so identical configs produce byte-identical files.
"""

import json
import sys
from contextlib import contextmanager


def _conversion(value):
    """The %-conversion of the one formatting rule: bool as 1/0, float to
    17 significant digits, str() for everything else."""
    if isinstance(value, bool):
        return "%d"
    if isinstance(value, float):
        return "%.17g"
    return "%s"


def fmt(value):
    return "" if value is None else _conversion(value) % (value,)


@contextmanager
def open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def write_csv(path, header, rows, meta=None):
    """Metadata lines, the header, then one line per row (a tuple).

    Every data line is written with one %-format, the conversions of the
    first row's fields (bool -> %d, float -> %.17g, else %s), so each
    column must keep its first row's type and hold no None; on such rows
    the bytes equal fmt's field by field.  Plain Python values
    (``tolist()``) format fastest: one % per line is about twice as fast
    as fmt per field.
    """
    with open_out(path) as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={fmt(meta[key])}\n")
        fh.write(",".join(header) + "\n")
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        line = ",".join(map(_conversion, first)) + "\n"
        fh.write(line % first)
        for row in rows:
            fh.write(line % row)


def write_json(path, obj, meta=None):
    payload = dict(obj)
    if meta:
        payload["_meta"] = {k: meta[k] for k in sorted(meta)}
    with open_out(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

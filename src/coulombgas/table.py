"""Structured tables and their JSON or CSV text.

Every subcommand emits one table: a JSON object with a schema_version, the
resolved parameters, and a list of rows.  CSV is a lossy projection of the
same table (complex values become re/im column pairs, nested details are
dropped).  The text is always what json.dumps(indent=2, allow_nan=False) or
csv.DictWriter would write.  The grid tables (geometry, tw, ldp) hand
render their rows as Columns: one value list per key, with a declared kind
(float, int, bool, str, or complex, written as {"re", "im"}), which one
%-format string compiled per table writes, so the formatting runs in C.
Their keys are identifiers and their strings need no CSV quoting; each
such table has at least one row, a head, and its rows last.  A nan or
infinity is written as its repr in CSV and raises json's ValueError in JSON
(exit 2), in a column as in the head.  Dict rows (the one to five rows of
the other subcommands) go through json and csv whole.
"""
from __future__ import annotations

import math
import sys

SCHEMA_VERSION = 1


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _flatten(row: dict) -> dict:
    flat = {}
    for key, value in row.items():
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            flat[f"{key}_re"] = value["re"]
            flat[f"{key}_im"] = value["im"]
        elif isinstance(value, (dict, list)):
            continue  # CSV is a lossy projection; nested details are dropped
        else:
            flat[key] = value
    return flat


class Columns(list):
    """Table rows held as columns: (key, kind, values) triples.

    kind is float, int, bool, str or complex; values holds one list per
    written column, (re, im) for complex, each with one entry per row.
    """


# the %-format slot of a column; float's %r is float.__repr__, which both
# json and csv use; bool and str columns are turned into text first for JSON
_SLOT = {float: "%r", complex: "%r", int: "%d", bool: "%s", str: "%s"}


def _json_rows(columns: Columns) -> list[str]:
    """Each row as json.dumps(indent=2) writes it inside the table."""
    from json.encoder import encode_basestring_ascii

    json_text = {bool: {True: "true", False: "false"}.__getitem__,
                 str: encode_basestring_ascii}
    fields, values, floats = [], [], []
    for key, kind, cols in columns:
        if kind is complex:
            fields.append(f'      "{key}": {{\n        "re": %r,\n'
                          f'        "im": %r\n      }}')
        else:
            fields.append(f'      "{key}": {_SLOT[kind]}')
        if kind is float or kind is complex:
            floats += cols
        if kind in json_text:
            values.append(list(map(json_text[kind], cols[0])))
        else:
            values += cols
    # a nan or infinity makes its column sum non-finite; json then raises
    # its own ValueError at the first one in row order (an overflowing sum
    # of finite values costs one needless dumps)
    if not all(math.isfinite(sum(col)) for col in floats):
        import json

        json.dumps(list(zip(*floats)), indent=2, allow_nan=False)
    fmt = "    {\n" + ",\n".join(fields) + "\n    }"
    return list(map(fmt.__mod__, zip(*values)))


def _csv_rows(columns: Columns) -> list[str]:
    """The header line and each row as csv.DictWriter writes them."""
    header, fields, values = [], [], []
    for key, kind, cols in columns:
        header += [f"{key}_re", f"{key}_im"] if kind is complex else [key]
        fields += [_SLOT[kind]] * len(cols)
        values += cols
    fmt = ",".join(fields) + "\n"
    return [",".join(header) + "\n", *map(fmt.__mod__, zip(*values))]


def _render_stdlib(table: dict, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(table, indent=2, allow_nan=False) + "\n"
    import csv
    import io

    rows = [_flatten(r) for r in table.get("rows", [])]
    header: list[str] = []
    for row in rows:
        header.extend(k for k in row if k not in header)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render(table: dict, fmt: str) -> str:
    """The table as JSON or CSV text; see the module docstring."""
    rows = table.get("rows")
    if not isinstance(rows, Columns):
        return _render_stdlib(table, fmt)
    if fmt == "csv":
        return "".join(_csv_rows(rows))
    import json

    head = json.dumps({k: v for k, v in table.items() if k != "rows"},
                      indent=2, allow_nan=False)
    lines = _json_rows(rows)
    lines[0] = head[:-2] + ',\n  "rows": [\n' + lines[0]
    lines[-1] += "\n  ]\n}\n"
    return ",\n".join(lines)


def emit(table: dict, args) -> None:
    text = render(table, args.format)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _table(subcommand: str, params: dict, rows: list, **extra) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
           "params": params}
    out.update(extra)
    out["rows"] = rows
    return out

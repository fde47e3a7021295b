"""Structured tables and their JSON or CSV text.

Every subcommand emits one table: a JSON object with a schema_version, the
resolved parameters, and a list of rows.  CSV is a lossy projection of the
same table (complex values become re/im column pairs, nested details are
dropped).  The text is always what json.dumps(indent=2, allow_nan=False) or
csv.DictWriter would write.  The grid tables (geometry, tw, ldp) hand
render their rows as Columns: one value list per key, with a declared kind
(float, int, bool, str, None, or complex, written as {"re", "im"}), which
one %-format string compiled per table writes, so the formatting runs in C.
A column table that this cannot write byte for byte (a CSV string that
needs quoting, a non-finite float in JSON) is expanded to dict rows; dict
rows (the one to five rows of the other subcommands) go through json and
csv whole, and a nan or infinity in JSON still raises ValueError (exit 2).
json loads only for JSON text, and csv only for the dict-row CSV path.
"""
from __future__ import annotations

import math
import re
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

    kind is float, int, bool, str, None or complex; values holds one list
    per written column, (re, im) for complex, each with one entry per row.
    """

    def dicts(self) -> list[dict]:
        """The same rows as dicts, with complex values as {"re", "im"}."""
        keys = [key for key, _, _ in self]
        cols = [[{"re": re, "im": im} for re, im in zip(*values)]
                if kind is complex else values[0] for _, kind, values in self]
        return [dict(zip(keys, row)) for row in zip(*cols)]


# Characters that make the csv module quote a field (QUOTE_MINIMAL with "\n"
# line ends); a string column holding one leaves the compiled path.
_CSV_QUOTED = re.compile(r'[,"\r\n]')
# the %-format slot of a column; float's %r is float.__repr__, which both
# json and csv use; bool and str columns are turned into text first
_SLOT = {float: "%r", int: "%d", bool: "%s", str: "%s"}


def _json_rows(columns: Columns) -> list[str] | None:
    """Each row as json.dumps(indent=2) writes it inside the table, or None."""
    from json.encoder import encode_basestring_ascii

    json_text = {bool: {True: "true", False: "false"}.__getitem__,
                 str: encode_basestring_ascii}
    fields, values = [], []
    for key, kind, cols in columns:
        name = encode_basestring_ascii(key).replace("%", "%%")
        if kind is complex:
            fields.append(f'      {name}: {{\n        "re": %r,\n'
                          f'        "im": %r\n      }}')
        else:
            fields.append(f"      {name}: {_SLOT.get(kind, 'null')}")
        if kind is float or kind is complex:
            # leave nan and infinity to json.dumps, which raises ValueError:
            # any such value makes the column sum non-finite (an overflowing
            # sum of finite values sends the table there too, harmlessly)
            if not all(math.isfinite(sum(col)) for col in cols):
                return None
        if kind in json_text:
            values.append(list(map(json_text[kind], cols[0])))
        elif kind is not None:
            values += cols
    if not values:
        return None
    fmt = "    {\n" + ",\n".join(fields) + "\n    }"
    return list(map(fmt.__mod__, zip(*values)))


def _csv_rows(columns: Columns) -> list[str] | None:
    """The header line and each row as csv.DictWriter writes them, or None."""
    header, fields, values = [], [], []
    for key, kind, cols in columns:
        if kind is complex:
            header += [f"{key}_re", f"{key}_im"]
            fields += ["%r", "%r"]
        else:
            header.append(key)
            fields.append(_SLOT.get(kind, ""))  # None is an empty field
        if kind is str and _CSV_QUOTED.search("".join(cols[0])):
            return None
        if kind is not None:
            values += cols
    # csv writes a lone empty field as "", and a key may repeat once flattened
    if (len(header) < 2 or len(set(header)) < len(header) or not values
            or _CSV_QUOTED.search("".join(header))):
        return None
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
    # the compiled format writes one row or more (rows[0][2][0] holds the
    # first column's values), and the rows last
    if rows and rows[0][2][0] and next(reversed(table)) == "rows":
        if fmt == "json":
            import json

            head = {k: v for k, v in table.items() if k != "rows"}
            lines = _json_rows(rows) if head else None
            if lines is not None:
                lines[0] = (json.dumps(head, indent=2, allow_nan=False)[:-2]
                            + ',\n  "rows": [\n' + lines[0])
                lines[-1] += "\n  ]\n}\n"
                return ",\n".join(lines)
        else:
            lines = _csv_rows(rows)
            if lines is not None:
                return "".join(lines)
    return _render_stdlib({**table, "rows": rows.dicts()}, fmt)


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

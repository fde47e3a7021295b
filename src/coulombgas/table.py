"""Structured tables and their JSON or CSV text.

Every subcommand emits one table: a JSON object with a schema_version, the
resolved parameters, and a list of rows.  CSV is a lossy projection of the
same table (complex values become re/im column pairs, nested details are
dropped).  The text is always what json.dumps(indent=2, allow_nan=False) or
csv.DictWriter would write.  The grid tables (geometry, tw, ldp) hand
render their rows as Columns: one value list per key, with a declared kind
(float, int, bool, str, or complex, written as {"re", "im"}), which one
%-format string compiled per table writes, so the formatting runs in C.
Float values are spelled as float.__repr__ spells them: a column of at
least ORJSON_CUT finite values through one orjson dump, whose shortest
round-trip digits are repr's and whose few other spellings are rewritten
to repr's, and any other column through repr itself.  Their keys are
identifiers and their strings need no CSV quoting; each such table has at
least one row, a head, and its rows last.  A nan or infinity is written as
its repr in CSV and raises json's ValueError in JSON (exit 2), in a column
as in the head.  Dict rows (the one to five rows of the other subcommands)
go through json and csv whole.
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


# the %-format slot of a column; float and complex columns are turned into
# float.__repr__'s text first (_float_texts), which both json and csv write,
# and bool and str columns are turned into text first for JSON
_SLOT = {float: "%s", complex: "%s", int: "%d", bool: "%s", str: "%s"}

# the column length from which one orjson dump pays for loading orjson on
# its own: the import takes 8-14 ms of a cold run without numpy (5-6 ms with
# it), and a value takes ~0.3 us through orjson against ~1.2 us through repr;
# no table of fewer rows loads orjson
ORJSON_CUT = 12_000

# orjson and float.__repr__ write the same shortest round-trip digits, and
# an exponent at |x| >= 1e16 and below 1e-5; there repr signs a positive
# exponent (1e+16) and writes a negative one in two digits at least (1e-06)
_SHORT_EXPONENTS = tuple((b"e-%d," % d, b"e-0%d," % d) for d in range(6, 10))


def _fixed_to_exponent(text: bytes) -> bytes:
    # orjson's 0.0000d... for |x| in [1e-5, 1e-4) is repr's d.…e-05; a match
    # inside a value, as in 10.00001, is left as it is
    pieces, start = [], 0
    at = text.find(b"0.0000")
    while at >= 0:
        end = text.find(b",", at)
        if text.startswith(b",", at - 1) or text.startswith(b",-", at - 2):
            digits = text[at + 6:end]
            pieces += (text[start:at], digits[:1], b"." if digits[1:] else b"",
                       digits[1:], b"e-05")
            start = end
        at = text.find(b"0.0000", end)
    pieces.append(text[start:])
    return b"".join(pieces)


def _float_texts(values: list) -> list[str]:
    """float.__repr__ of each Python float of values."""
    if len(values) < ORJSON_CUT:
        return list(map(repr, values))
    import orjson

    # every value between commas, so each pattern below sees its delimiters
    text = b"," + orjson.dumps(values)[1:-1] + b","
    if b"n" in text:  # orjson writes a nan or infinity as null
        return list(map(repr, values))
    if b"e" in text:
        text = text.replace(b"e", b"e+").replace(b"e+-", b"e-")
        for short, padded in _SHORT_EXPONENTS:
            if short in text:
                text = text.replace(short, padded)
    if b"0.0000" in text:
        text = _fixed_to_exponent(text)
    return text[1:-1].decode().split(",")


def _json_rows(columns: Columns) -> list[str]:
    """Each row as json.dumps(indent=2) writes it inside the table."""
    from json.encoder import encode_basestring_ascii

    json_text = {bool: {True: "true", False: "false"}.__getitem__,
                 str: encode_basestring_ascii}
    # a nan or infinity makes its column sum non-finite; json then raises
    # its own ValueError at the first one in row order (an overflowing sum
    # of finite values costs one needless dumps)
    floats = [col for _, kind, cols in columns
              if kind is float or kind is complex for col in cols]
    if not all(math.isfinite(sum(col)) for col in floats):
        import json

        json.dumps(list(zip(*floats)), indent=2, allow_nan=False)
    fields, values = [], []
    for key, kind, cols in columns:
        if kind is complex:
            fields.append(f'      "{key}": {{\n        "re": %s,\n'
                          f'        "im": %s\n      }}')
        else:
            fields.append(f'      "{key}": {_SLOT[kind]}')
        if kind is float or kind is complex:
            values += map(_float_texts, cols)
        elif kind in json_text:
            values.append(list(map(json_text[kind], cols[0])))
        else:
            values += cols
    fmt = "    {\n" + ",\n".join(fields) + "\n    }"
    return list(map(fmt.__mod__, zip(*values)))


def _csv_rows(columns: Columns) -> list[str]:
    """The header line and each row as csv.DictWriter writes them."""
    header, fields, values = [], [], []
    for key, kind, cols in columns:
        header += [f"{key}_re", f"{key}_im"] if kind is complex else [key]
        fields += [_SLOT[kind]] * len(cols)
        values += (map(_float_texts, cols) if kind is float or kind is complex
                   else cols)
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

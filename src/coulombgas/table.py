"""Structured tables and their JSON or CSV text.

Every subcommand emits one table: a JSON object with a schema_version, the
resolved parameters, and its rows last; render refuses any other shape.
The text is always what json.dumps(indent=2, allow_nan=False) or
csv.DictWriter (minimal quoting, "\n" line ends) would write; CSV is a lossy
projection of it (complex values become re/im column pairs, nested values
are dropped).  A command hands its rows in either of two shapes: a list
of dict rows, or one dict of equal-length value lists ({"t": ts, ...}).
Both are read into columns, each key of the kind of its values' one exact
type: float, int, bool, str, complex (a Python complex, written as
{"re", "im"}; only this module spells one or splits it into its parts, in
the head as in the rows) or object (a dict or list, written as json.dumps
writes it); a mixed column or any other type is refused by name, as json
refuses one in the head.  One %-format string compiled per table writes
the columns, so the formatting runs in C.  Float values are spelled as
float.__repr__ spells them: a column of at least ORJSON_CUT finite values
through one orjson dump, whose shortest round-trip digits are repr's and
whose few other spellings are rewritten to repr's, and any other column
through repr itself.  Keys are identifiers.  A nan or infinity is written
as its repr in CSV and raises json's ValueError in JSON (exit 2), in a
column as in the head.
"""
from __future__ import annotations

import math
import sys

SCHEMA_VERSION = 1


def _cnum(z: complex) -> dict:
    if type(z) is not complex:  # json.dumps's default: refuse as json does
        raise TypeError(f"Object of type {type(z).__name__} is not JSON "
                        "serializable")
    return {"re": z.real, "im": z.imag}


# the kind of each exact type a value may have
_KIND = {float: float, int: int, bool: bool, str: str, complex: complex,
         dict: object, list: object}


def _columns(rows) -> list:
    """Either shape of rows as (key, kind, values) triples: values holds one
    list per written column, (re, im) for complex; see the module docstring."""
    if isinstance(rows, dict):
        if len({len(values) for values in rows.values()}) > 1:
            raise TypeError(f"columns {list(rows)} differ in length")
    else:
        keys = list(rows[0]) if rows else []
        for row in rows:
            if list(row) != keys:
                raise TypeError(f"dict row keys {list(row)} are not {keys}")
        rows = {key: [row[key] for row in rows] for key in keys}
    columns = []
    for key, values in rows.items():
        types = set(map(type, values))
        if len(types) != 1 or not types <= _KIND.keys():
            raise TypeError(f"rows give {key!r} no one column kind: "
                            f"{sorted(t.__name__ for t in types)}")
        kind = _KIND[types.pop()]
        columns.append((key, kind,
                        [[z.real for z in values], [z.imag for z in values]]
                        if kind is complex else [values]))
    return columns


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


def _json_rows(columns: list) -> list[str]:
    """Each row as json.dumps(indent=2) writes it inside the table."""
    import json
    from json.encoder import encode_basestring_ascii

    json_text = {bool: {True: "true", False: "false"}.__getitem__,
                 str: encode_basestring_ascii,
                 object: lambda value: json.dumps(
                     value, indent=2, allow_nan=False,
                     default=_cnum).replace("\n", "\n      ")}
    # a nan or infinity makes its column sum non-finite; json then raises
    # its own ValueError at the first one in row order (an overflowing sum
    # of finite values costs one needless dumps)
    floats = [col for _, kind, cols in columns
              if kind is float or kind is complex for col in cols]
    if not all(math.isfinite(sum(col)) for col in floats):
        json.dumps(list(zip(*floats)), indent=2, allow_nan=False)
    fields, values = [], []
    for key, kind, cols in columns:
        fields.append(f'      "{key}": ' + ("%s" if kind is not complex else
                      '{\n        "re": %s,\n        "im": %s\n      }'))
        if kind is float or kind is complex:
            values += map(_float_texts, cols)
        elif kind in json_text:
            values.append(list(map(json_text[kind], cols[0])))
        else:
            values += cols
    fmt = "    {\n" + ",\n".join(fields) + "\n    }"
    return list(map(fmt.__mod__, zip(*values)))


def _csv_rows(columns: list) -> list[str]:
    """The header line and each row as csv.DictWriter writes them."""
    header, fields, values = [], [], []
    for key, kind, cols in columns:
        if kind is object:
            continue  # CSV is a lossy projection; nested values are dropped
        # csv quotes a field with a comma, quote or newline: one scan of
        # the whole column, and only a hit checks value by value
        if kind is str and any(ch in "".join(cols[0]) for ch in ',"\n'):
            cols = [['"%s"' % v.replace('"', '""')
                     if any(ch in v for ch in ',"\n') else v for v in cols[0]]]
        header += [f"{key}_re", f"{key}_im"] if kind is complex else [key]
        fields += ["%s"] * len(cols)
        values += (map(_float_texts, cols) if kind is float or kind is complex
                   else cols)
    fmt = ",".join(fields) + "\n"
    # with every column dropped, csv still writes an empty line a row
    rows = zip(*values) if values else [()] * len(columns and columns[0][2][0])
    return [",".join(header) + "\n", *map(fmt.__mod__, rows)]


def render(table: dict, fmt: str) -> str:
    """The table as JSON or CSV text; see the module docstring."""
    if len(table) < 2 or list(table)[-1] != "rows":
        raise TypeError(f"a table is a head and its rows last: {list(table)}")
    rows = _columns(table["rows"])
    if fmt == "csv":
        return "".join(_csv_rows(rows))
    import json

    head = json.dumps({k: v for k, v in table.items() if k != "rows"},
                      indent=2, allow_nan=False, default=_cnum)[:-2]
    lines = _json_rows(rows)
    if not lines:
        return head + ',\n  "rows": []\n}\n'
    lines[0] = head + ',\n  "rows": [\n' + lines[0]
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
    return {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
            "params": params, **extra, "rows": rows}

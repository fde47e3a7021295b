"""Float columns of the grid tables: orjson's digits, float.__repr__'s text."""

import math

import numpy as np
import orjson
import pytest

import oracles
from coulombgas import painleve
from coulombgas.table import ORJSON_CUT, _float_texts, render


@pytest.fixture
def dumps_calls(monkeypatch):
    """The lists handed to orjson.dumps while the test runs."""
    calls = []
    dumps = orjson.dumps

    def counted(value, *args, **kwargs):
        calls.append(value)
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(orjson, "dumps", counted)
    return calls


def _neighbours(x, count=5):
    # x and its count nearest floats on each side, of both signs
    out = []
    for sign in (1.0, -1.0):
        for toward in (0.0, math.inf):
            y = sign * x
            for _ in range(count):
                out.append(y)
                y = math.nextafter(y, sign * toward)
    return out


def _doubles():
    """2 * 10^6 finite doubles in chunks above the cut: random bit
    patterns, log-uniform magnitudes of both signs, and the edge cases."""
    rng = np.random.default_rng(20240601)
    bits = rng.integers(0, 2 ** 64, size=1_050_000, dtype=np.uint64,
                        endpoint=False).view(np.float64)
    bits = bits[np.isfinite(bits)][:1_000_000]
    logs = (rng.choice([-1.0, 1.0], size=1_000_000)
            * 10.0 ** rng.uniform(-25.0, 25.0, size=1_000_000))
    special = [2.0 ** k for k in range(-1074, 1024)]
    special += [0.0, -0.0, 5e-324, -5e-324]
    for x in (1e-5, 1e-4, 1e16):
        special += _neighbours(x)
    values = [*bits.tolist(), *logs.tolist(), *special]
    n = len(values)
    return [values[i * n // 20:(i + 1) * n // 20] for i in range(20)]


def test_texts_equal_repr_on_two_million_doubles(dumps_calls):
    chunks = _doubles()
    assert sum(map(len, chunks)) >= 2_000_000
    assert min(map(len, chunks)) >= ORJSON_CUT
    for chunk in chunks:
        assert _float_texts(chunk) == list(map(repr, chunk))
    # every chunk went through orjson, not repr
    assert len(dumps_calls) == len(chunks)


@pytest.mark.parametrize("x", [1e-5, 1e-4, 1e16, 1e-10, 1e-9])
def test_spelling_changes_at_the_edges(x, dumps_calls):
    # each neighbour at the head of a column long enough for orjson
    for y in _neighbours(x):
        column = [y] + [0.5] * ORJSON_CUT
        assert _float_texts(column)[:2] == [repr(y), "0.5"]
    assert dumps_calls


def test_fixed_digits_inside_a_value_stay():
    # 0.0000 inside a value is not orjson's fixed spelling of [1e-5, 1e-4)
    column = [10.00001, -10.00001, 1.00001e-5, -0.0001, 0.00001] * ORJSON_CUT
    assert _float_texts(column) == list(map(repr, column))


def _table(columns, **head):
    return {"schema_version": 1, "params": {"grid": None}, **head,
            "rows": columns}


@pytest.mark.parametrize("rows", [ORJSON_CUT - 1, ORJSON_CUT])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tables_at_and_below_the_cut_match_the_reference(rows, fmt,
                                                         dumps_calls):
    ts = np.linspace(-1e-3, 1e17, rows).tolist()
    small = [t * 1e-21 for t in ts]
    table = _table({"t": ts, "z": list(map(complex, small, ts)),
                    "n": list(range(rows)), "ok": [True] * rows})
    text = render(table, fmt)
    assert text == oracles.reference_render(
        {**table, "rows": oracles.column_rows(table["rows"])}, fmt)
    # t, re and im each through one dump at the cut, none below it
    assert len(dumps_calls) == (3 if rows == ORJSON_CUT else 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_long_column(bad):
    xs = [0.25 * k for k in range(ORJSON_CUT)]
    xs[ORJSON_CUT // 2] = bad
    ys = [1e-5 * k for k in range(ORJSON_CUT)]
    table = _table({"x": xs, "y": ys})
    with pytest.raises(ValueError) as ours:
        render(table, "json")
    with pytest.raises(ValueError) as theirs:
        oracles.reference_render(
            {**table, "rows": oracles.column_rows(table["rows"])}, "json")
    assert str(ours.value) == str(theirs.value)
    assert render(table, "csv").splitlines() == [
        "x,y", *(f"{x!r},{y!r}" for x, y in zip(xs, ys))]


def test_tw_columns_take_the_orjson_route(hm_solution, dumps_calls):
    # the columns hold Python floats from tolist(): orjson refuses numpy's
    ts = np.linspace(-8.0, 6.0, ORJSON_CUT).tolist()
    cdf, survival = painleve.tw_cdf_survival(hm_solution, ts)
    assert {type(x) for x in (*cdf, *survival)} == {float}
    table = _table({"t": ts, "cdf": cdf, "survival": survival})
    for fmt in ("json", "csv"):
        assert render(table, fmt) == oracles.reference_render(
            {**table, "rows": oracles.column_rows(table["rows"])}, fmt)
    assert dumps_calls == [ts, cdf, survival] * 2

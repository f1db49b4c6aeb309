"""A missing cell is a value of its own, from ingest to the printed SQL.

The forest splits on "attr is missing" like on a category, against the
brute-force oracle. The gate: the raw input loaded into stdlib sqlite3,
with an empty cell as NULL; for every report entry, `SELECT count(*)` of
its query equals its full_row_count.
"""

import csv
import json
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpidiag import pipeline
from kpidiag.cli import main
from kpidiag.config import load_run_config
from kpidiag.forest import Hyperparams, dump_text, parse_text, train
from kpidiag.ingest import load
from kpidiag.model import KpiKind, KpiSpec, Predicate, SchemaConfig

from conftest import make_table
from oracles import best_split, forest_structure_equal, iter_rows, oracle_best_gain

RUN_DATE = "2026-08-10"
CELLS = {"cat": [None, "a", "b", "c"], "cont": [None, 0.0, 1.0, 2.5, 4.0]}


@st.composite
def problems(draw):
    """(table whose cells may be missing, target, oracle feature list, min_rows, classification)."""
    n = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(["cat", "cont"]), min_size=1, max_size=3))
    columns = {f"f{j}": (kind, draw(st.lists(st.sampled_from(CELLS[kind]), min_size=n, max_size=n)))
               for j, kind in enumerate(kinds)}
    classification = draw(st.booleans())
    y = draw(st.lists(st.booleans() if classification else st.integers(0, 100).map(float), min_size=n, max_size=n))
    return make_table(columns), np.array(y), [(f"f{j}", kind) for j, kind in enumerate(kinds)], \
        draw(st.integers(1, 3)), classification


@settings(max_examples=300, deadline=None)
@given(problems())
def test_best_split_on_missing_cells_matches_brute_force(problem):
    table, y, features, min_rows, classification = problem
    cand = best_split(table, y, min_rows_in_leaf=min_rows)
    expected = oracle_best_gain(list(iter_rows(table)), list(y), features, min_rows, classification)
    if cand is None:
        assert expected is None or expected <= 1e-9
    else:
        assert cand.gain == pytest.approx(expected, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_a_dump_holding_missing_tests_parses_back_equal(problem):
    table, _, _, min_rows, classification = problem
    # the target is whether f0 is missing: the root's best split is its missing test
    y = table.missing("f0")
    if y.all() or not y.any() or min(y.sum(), (~y).sum()) < min_rows:
        return
    model = train(table, y if classification else y * 1.0, Hyperparams(min_rows, 1.0, num_trees=2))
    assert model.trees[0].split == Predicate.equals("f0", "")
    text = dump_text(model)
    assert "\nf0=\t" in text
    assert forest_structure_equal(parse_text(text), model)


def test_predicate_masks_leave_out_missing_cells_but_for_the_missing_test():
    table = make_table({"C": ("cat", ["a", None, "b"]), "X": ("cont", [1.0, None, 3.0])})
    masks = {p: table.predicate_mask(p).tolist() for p in [
        Predicate.equals("C", "a"), Predicate.equals("C", "a", False),
        Predicate.greater_than("X", 2.0), Predicate.greater_than("X", 2.0, False),
        Predicate.equals("C", ""), Predicate.equals("X", ""), Predicate.equals("X", "", False)]}
    assert list(masks.values()) == [
        [True, False, False], [False, False, True],
        [False, False, True], [True, False, False],
        [False, True, False], [False, True, False], [True, False, True]]
    assert [p.text() for p in list(masks)[-2:]] == ["X is missing", "X is present"]


def test_an_empty_jsonl_text_is_missing_as_an_empty_csv_cell_is(tmp_path):
    (tmp_path / "a.jsonl").write_text('{"C": "", "L": 1}\n{"C": "x", "L": 2}\n{"L": 3}\n', encoding="utf-8")
    (tmp_path / "a.csv").write_text("C,L\n,1\nx,2\n,3\n", encoding="utf-8")
    config = SchemaConfig(KpiSpec("L", KpiKind.CONTINUOUS, threshold=1.0))
    for name, format in (("a.jsonl", "jsonl"), ("a.csv", "csv")):
        table = load(tmp_path / name, format, config)
        assert table.categories("C") == ("x",)
        assert table.codes("C").tolist() == [-1, 0, -1]


# -- the sqlite3 gate --------------------------------------------------------


def blanked_rows(kind: str, seed: int = 1, n: int = 6000) -> list[dict]:
    """Rows in which X (continuous) or C (categorical) is empty on a share
    of rows, and those rows carry +5 on the KPI Lat."""
    rng = np.random.default_rng(seed)
    a, c, x, y = rng.integers(0, 8, n), rng.integers(0, 6, n), rng.lognormal(0, 1, n), rng.normal(10, 2, n)
    lat = rng.lognormal(0, 1, n)
    gap = rng.random(n) < (0.3 if kind == "cont" else 0.2)
    lat[gap] += 5
    rows = [{"A": f"a{a[i]}", "C": f"c{c[i]}", "X": repr(float(x[i])), "Y": repr(float(y[i])),
             "Lat": repr(float(lat[i]))} for i in range(n)]
    for i in np.flatnonzero(gap):
        rows[i]["X" if kind == "cont" else "C"] = ""
    return rows


def write_inputs(tmp_path, rows: list[dict], trees: int = 10):
    """(logs.csv, run.json) for the rows, with a continuous KPI Lat."""
    data = tmp_path / "logs.csv"
    with open(data, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"kpi": {"column": "Lat", "kind": "continuous", "slo": {"threshold": 5.0}},
                                  "seed": 5, "hyperparams": {"num_trees": trees}}), encoding="utf-8")
    return data, config


def sqlite_counts(rows: list[dict], report: dict) -> list[tuple[int, int]]:
    """(full_row_count, what sqlite3 counts for its query) of every report entry."""
    db = sqlite3.connect(":memory:")
    names = list(rows[0])
    kinds = {name: "REAL" if name in ("X", "Y", "Lat") else "TEXT" for name in names}
    db.execute(f"CREATE TABLE logs ({', '.join(f'{n} {kinds[n]}' for n in names)})")
    db.executemany(f"INSERT INTO logs VALUES ({', '.join('?' * len(names))})",
                   [[r[n] or None for n in names] for r in rows])
    return [(e["full_row_count"], db.execute(e["query"].replace("SELECT *", "SELECT count(*)", 1)).fetchone()[0])
            for e in report["rules"]]


def diagnose(tmp_path, data, config) -> dict:
    out = tmp_path / "out"
    argv = ["--config", str(config), "--input", str(data), "--history", str(tmp_path / "h.tsv"), "--out", str(out)]
    assert main(["diagnose", *argv, "--date", RUN_DATE]) == 2
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def staged(tmp_path, data, config) -> dict:
    work = tmp_path / "work"
    inputs = ["--config", str(config), "--input", str(data)]
    assert main(["train", *inputs, "--out", str(work)]) == 0
    # extract uses the table train left, missing cells and all
    table = pipeline.load_table(load_run_config(config), data, work / "model.txt")
    assert any(table.missing(s.name).any() for s in table.feature_columns())
    assert main(["extract", *inputs, "--model", str(work / "model.txt"), "--out", str(work)]) == 0
    argv = ["--config", str(config), "--rules", str(work / "rules.json"), "--history", str(tmp_path / "s.tsv")]
    assert main(["triage", *argv, "--out", str(work), "--date", RUN_DATE]) == 2
    return json.loads((work / "report.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind, top", [("cont", "X"), ("cat", "C")])
def test_the_missing_test_ranks_first_and_every_count_is_what_sqlite_selects(tmp_path, capsys, kind, top):
    rows = blanked_rows(kind)
    data, config = write_inputs(tmp_path, rows)
    report = diagnose(tmp_path, data, config)
    assert staged(tmp_path, data, config) == report
    first = report["rules"][0]
    assert (first["key"], first["correlated_predicate"]) == (f"{top}=", f"{top} is missing")
    assert first["query"].endswith(f"{top} IS NULL")
    counts = sqlite_counts(rows, report)
    assert counts[0][0] == sum(r[top] == "" for r in rows)
    assert [sqlite for _, sqlite in counts] == [full for full, _ in counts]


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_counts_equal_sqlite_with_missing_cells_in_both_kinds(tmp_path, capsys, seed):
    rng = np.random.default_rng(seed)
    rows = blanked_rows("cont", seed, n=3000)
    for r in rows:
        for name, share in (("A", 0.1), ("C", 0.4), ("Y", 0.05)):
            if rng.random() < share:
                r[name] = ""
    data, config = write_inputs(tmp_path, rows, trees=6)
    report = diagnose(tmp_path, data, config)
    assert staged(tmp_path, data, config) == report
    counts = sqlite_counts(rows, report)
    assert len(counts) > 5
    assert [sqlite for _, sqlite in counts] == [full for full, _ in counts]


# -- rows without a KPI value ------------------------------------------------


def test_rows_without_a_kpi_value_are_left_out_and_counted(tmp_path, capsys):
    rows = blanked_rows("cont", n=600)
    for r in rows[:7]:
        r["Lat"] = ""
    data, config = write_inputs(tmp_path, rows, trees=2)
    warning = "7 rows have no value in KPI column 'Lat' and were left out"
    diagnose(tmp_path, data, config)
    assert f"warning: {warning}\n" in capsys.readouterr().err
    assert warning in json.loads((tmp_path / "out" / "pruning.json").read_text())["warnings"]
    assert main(["train", "--config", str(config), "--input", str(data), "--out", str(tmp_path / "t")]) == 0
    assert f"warning: {warning}\n" in capsys.readouterr().err

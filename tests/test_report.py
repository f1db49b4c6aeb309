import _sqlite3
import ctypes
import datetime
import json
import re
import sqlite3

import numpy as np
import pytest

from kpidiag.model import (
    KpiKind,
    KpiSpec,
    Predicate,
    Rule,
    TriageCategory,
    TriagedRule,
)
from kpidiag.report import (
    entries,
    generate_query,
    precision,
    render_json,
    render_markdown,
)

from conftest import make_table
from oracles import QueryParseError, execute_query

LAT = KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=5.0)
RUN_DATE = datetime.date(2026, 8, 10)


def rule_of(correlated, scope=(), score=1.0, count=10, impact=None):
    return Rule(
        correlated_predicate=correlated,
        scope_predicates=tuple(scope),
        correlation_score=score,
        request_count=count,
        performance_impact=impact,
    )


class TestGenerateQuery:
    def test_scope_then_correlated(self):
        rule = rule_of(
            Predicate.greater_than("AuthLatency", 47.0),
            scope=[Predicate.equals("Region", "NorthAmerica")],
        )
        assert (
            generate_query(rule)
            == "SELECT * FROM logs WHERE Region = 'NorthAmerica' AND AuthLatency > 47"
        )

    def test_empty_scope_single_conjunct(self):
        rule = rule_of(Predicate.equals("Rack", "AN150C01"))
        assert generate_query(rule) == "SELECT * FROM logs WHERE Rack = 'AN150C01'"

    def test_embedded_quote_doubled(self):
        rule = rule_of(Predicate.equals("Name", "O'Brien"))
        assert "Name = 'O''Brien'" in generate_query(rule)

    def test_identifier_with_spaces_quoted(self):
        rule = rule_of(Predicate.greater_than("L2 Cache Latency", 40.0))
        assert '"L2 Cache Latency" > 40' in generate_query(rule)

    def test_inverted_forms(self):
        rule = rule_of(
            Predicate.greater_than("Lat", 2.5, polarity=False),
            scope=[Predicate.equals("Region", "NA", polarity=False)],
        )
        sql = generate_query(rule)
        assert "Region <> 'NA'" in sql
        assert "Lat <= 2.5" in sql

    def test_missing_test_is_null(self):
        rule = rule_of(Predicate.equals("Rack", ""), scope=[Predicate.equals("Lat", "", polarity=False)])
        assert generate_query(rule) == "SELECT * FROM logs WHERE Lat IS NOT NULL AND Rack IS NULL"

    def test_custom_table_name(self):
        rule = rule_of(Predicate.equals("A", "x"))
        assert generate_query(rule, "mylogs").startswith("SELECT * FROM mylogs WHERE")


class TestExecuteQuery:
    def test_selects_exactly_the_matching_rows(self):
        table = make_table(
            {
                "Region": ("cat", ["NA", "NA", "EU", "AP"]),
                "AuthLatency": ("cont", [50.0, 60.0, 70.0, 40.0]),
            }
        )
        rule = rule_of(
            Predicate.greater_than("AuthLatency", 47.0),
            scope=[Predicate.equals("Region", "NA")],
        )
        rows = execute_query(generate_query(rule), table)
        assert rows.tolist() == [0, 1]

    def test_quote_round_trip_executes(self):
        table = make_table({"Name": ("cat", ["O'Brien", "Smith"])})
        rule = rule_of(Predicate.equals("Name", "O'Brien"))
        assert execute_query(generate_query(rule), table).tolist() == [0]

    def test_quoted_identifier_executes(self):
        table = make_table({"L2 Cache Latency": ("cont", [10.0, 50.0])})
        rule = rule_of(Predicate.greater_than("L2 Cache Latency", 40.0))
        assert execute_query(generate_query(rule), table).tolist() == [1]

    def test_parse_rejects_garbage(self):
        table = make_table({"A": ("cat", ["x"])})
        for bad in (
            "SELECT * FROM logs",
            "SELECT A FROM logs WHERE A = 'x'",
            "SELECT * FROM logs WHERE A = 1",
            "SELECT * FROM logs WHERE A > 'x'",
            "SELECT * FROM logs WHERE A = 'x' OR B = 'y'",
            "SELECT * FROM logs WHERE A = 'x",
        ):
            with pytest.raises(QueryParseError):
                execute_query(bad, table)

    def test_fuzz_equivalence_small(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 25))
            table = make_table(
                {
                    "Cat Col": ("cat", [f"v'{v}" for v in rng.integers(0, 4, n)]),
                    "Num": ("cont", [float(x) for x in rng.normal(size=n)]),
                }
            )
            preds = []
            for _ in range(int(rng.integers(1, 4))):
                if rng.random() < 0.5:
                    preds.append(
                        Predicate.equals(
                            "Cat Col", f"v'{int(rng.integers(0, 4))}", bool(rng.random() < 0.8)
                        )
                    )
                else:
                    preds.append(
                        Predicate.greater_than(
                            "Num", float(rng.normal()), bool(rng.random() < 0.8)
                        )
                    )
            rule = rule_of(preds[-1], scope=preds[:-1])
            got = execute_query(generate_query(rule), table).tolist()
            expected = np.flatnonzero(table.conjunction_mask(rule.all_predicates())).tolist()
            assert got == expected, f"trial {trial}"


def sqlite_keywords() -> list[str]:
    """The keyword list of the SQLite library the stdlib `sqlite3` module links."""
    try:
        lib = ctypes.CDLL(_sqlite3.__file__)
        count, name_of = lib.sqlite3_keyword_count, lib.sqlite3_keyword_name
    except (OSError, AttributeError) as e:
        pytest.skip(f"SQLite keyword list not loadable: {e}")
    name, size = ctypes.c_char_p(), ctypes.c_int()
    words = []
    for i in range(count()):
        name_of(i, ctypes.byref(name), ctypes.byref(size))
        words.append(name.value[: size.value].decode("ascii"))
    return words


class TestSqliteRunsGeneratedQueries:
    """SQLite selects the rule's rows even when a column is named after a keyword.

    Thresholds keep three decimals: SQLite parses a few full-precision
    `repr(float)` literals one unit in the last place off, so it cannot
    stand in for the oracle on arbitrary floats.
    """

    CATS = ["a", "b", "a", "c", "b", "a"]
    NUMS = [0.1, 0.125, 0.5, -1.25, 0.126, 0.124]

    def test_keyword_named_columns(self):
        keywords = sqlite_keywords()
        assert "NULL" in keywords
        db = sqlite3.connect(":memory:")
        for word in keywords:
            name = word.lower()
            table = make_table({name: ("cat", self.CATS), "Num": ("cont", self.NUMS)})
            db.execute(f'CREATE TABLE "t_{name}" (i INTEGER, "{name}" TEXT, Num REAL)')
            db.executemany(
                f'INSERT INTO "t_{name}" VALUES (?, ?, ?)',
                zip(range(len(self.CATS)), self.CATS, self.NUMS),
            )
            for rule in (
                rule_of(Predicate.equals(name, "a")),
                rule_of(
                    Predicate.greater_than("Num", 0.125),
                    scope=[Predicate.equals(name, "b", polarity=False)],
                ),
            ):
                sql = generate_query(rule, f"t_{name}")
                got = sorted(r[0] for r in db.execute(sql))
                expected = np.flatnonzero(table.conjunction_mask(rule.all_predicates()))
                assert got == expected.tolist(), sql

    def test_null_cells_are_selected_only_by_the_missing_test(self):
        cats, nums = ["a", None, "b", "a", None, "c"], [0.1, None, 0.5, None, 0.126, -1.25]
        table = make_table({"C": ("cat", cats), "Num": ("cont", nums)})
        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE logs (i INTEGER, C TEXT, Num REAL)")
        db.executemany("INSERT INTO logs VALUES (?, ?, ?)", zip(range(len(cats)), cats, nums))
        tests = [Predicate.equals("C", "a"), Predicate.equals("C", ""), Predicate.equals("Num", ""),
                 Predicate.greater_than("Num", 0.125)]
        for scope in tests + [p.flip() for p in tests]:
            for correlated in tests + [p.flip() for p in tests]:
                rule = rule_of(correlated, scope=[scope])
                sql = generate_query(rule)
                expected = np.flatnonzero(table.conjunction_mask(rule.all_predicates())).tolist()
                assert sorted(r[0] for r in db.execute(sql)) == expected, sql
                assert execute_query(sql, table).tolist() == expected, sql


def code_spans(line: str) -> list[str]:
    """The code spans of one markdown line, as CommonMark reads them: a
    backtick run opens one, the next run of the same length closes it, and
    one space comes off both ends of a text that starts and ends with one."""
    spans, at = [], 0
    while opening := re.compile("`+").search(line, at):
        fence = opening.group()
        closing = re.compile(f"(?<!`){fence}(?!`)").search(line, opening.end())
        if closing is None:  # a run that no run of its length closes is plain text
            at = opening.end()
            continue
        text = line[opening.end() : closing.start()]
        spans.append(text[1:-1] if text.strip(" ") and text[0] == text[-1] == " " else text)
        at = closing.end()
    return spans


class TestRender:
    def _triaged(self):
        r1 = rule_of(
            Predicate.equals("Rack", "AN150C01"),
            scope=[
                Predicate.equals("RequestType", "Offbox"),
                Predicate.equals("LocDataCenter", "AN"),
                Predicate.equals("CrossDataCenter", "true"),
            ],
            score=4413.0,
            count=812,
            impact=4419.0,
        )
        r2 = rule_of(Predicate.greater_than("RoutingLatency", 568.0), score=12.0, count=100)
        return [
            TriagedRule(r2, TriageCategory.REGRESSED),
            TriagedRule(r1, TriageCategory.NEW),
        ]

    def test_empty_report_is_valid(self):
        doc = json.loads(render_json(entries([]), [], RUN_DATE, LAT))
        assert doc["rules"] == []
        assert doc["resolved"] == []
        assert doc["run_date"] == "2026-08-10"

    def test_rules_sorted_by_score_with_ranks(self):
        doc = json.loads(render_json(entries(self._triaged()), ["Old>"], RUN_DATE, LAT))
        scores = [r["correlation_score"] for r in doc["rules"]]
        assert scores == sorted(scores, reverse=True)
        assert [r["rank"] for r in doc["rules"]] == [1, 2]
        assert doc["resolved"] == ["Old>"]

    def test_incident_shape_fields(self):
        doc = json.loads(render_json(entries(self._triaged()), [], RUN_DATE, LAT))
        top = doc["rules"][0]
        assert top["correlated_predicate"] == "Rack:AN150C01"
        assert top["scope_predicates"] == [
            "RequestType:Offbox",
            "LocDataCenter:AN",
            "CrossDataCenter:true",
        ]
        assert top["triage"] == "new"
        assert top["request_count"] == 812
        assert top["performance_impact"] == 4419.0
        assert top["query"].startswith("SELECT * FROM logs WHERE")

    def test_json_round_trips_losslessly(self):
        text = render_json(entries(self._triaged()), ["A=b"], RUN_DATE, LAT)
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc

    def test_no_rule_dropped_or_duplicated(self):
        triaged = self._triaged()
        doc = json.loads(render_json(entries(triaged), [], RUN_DATE, LAT))
        assert len(doc["rules"]) == len(triaged)
        assert {r["key"] for r in doc["rules"]} == {t.rule.key() for t in triaged}

    def test_markdown_contains_table_and_sections(self):
        md = render_markdown(entries(self._triaged()), ["Gone="], RUN_DATE, LAT)
        assert "| Rank | Triage |" in md
        assert "Rack:AN150C01" in md
        assert "RequestType:Offbox" in md
        assert "## Resolved" in md
        assert "`Gone=`" in md
        assert "## Queries" in md

    def test_a_pipe_in_a_table_cell_is_escaped(self):
        piped = rule_of(Predicate.equals("Path", "/a|b"), scope=[Predicate.equals("Rack", "r|1")], score=9999.0)
        triaged = [TriagedRule(piped, TriageCategory.NEW), *self._triaged()]
        md = render_markdown(entries(triaged), ["A|B=c"], RUN_DATE, LAT)
        rows = [line for line in md.splitlines() if line.startswith("|")]
        assert len(rows) == 2 + len(triaged)
        for row in rows:
            # the cells between the first and the last unescaped "|"
            assert len(re.split(r"(?<!\\)\|", row)[1:-1]) == 7, row
        assert "| Path:/a\\|b | Rack:r\\|1 |" in md
        # the Resolved and Queries lists and the JSON report keep the text as it is
        assert "- `A|B=c`" in md
        assert f"1. `{generate_query(piped)}`" in md
        top = json.loads(render_json(entries(triaged), [], RUN_DATE, LAT))["rules"][0]
        assert (top["correlated_predicate"], top["scope_predicates"]) == ("Path:/a|b", ["Rack:r|1"])

    def test_a_backtick_does_not_end_a_code_span(self):
        odd = rule_of(Predicate.equals("UA", "curl`7"), scope=[Predicate.equals("Q", "``")], score=9999.0)
        kpi = KpiSpec(column="L`at", kind=KpiKind.CONTINUOUS, threshold=5.0)
        resolved = ["UA=old`x", "`edge` ", " pad "]
        lines = render_markdown(entries([TriagedRule(odd, TriageCategory.NEW)]), resolved, RUN_DATE, kpi).splitlines()
        assert code_spans(lines[2]) == ["L`at", str(kpi.describe()["slo"])]
        assert [code_spans(line) for line in lines if line.startswith("- ")] == [[key] for key in resolved]
        assert [code_spans(line) for line in lines if line.startswith("1. ")] == [[generate_query(odd)]]

    def test_stale_rule_renders_null_impact(self):
        stale = rule_of(Predicate.equals("A", "x"), impact=None)
        doc = json.loads(
            render_json(entries([TriagedRule(stale, TriageCategory.NEW)]), [], RUN_DATE, LAT)
        )
        assert doc["rules"][0]["performance_impact"] is None


class TestPrecision:
    def _keys(self, *values):
        return [rule_of(Predicate.equals("X", v)).key() for v in values]

    def test_three_of_four(self):
        p, valid = precision(self._keys("a", "b", "c", "d"), {"X=a", "X=b", "X=c"})
        assert p == 0.75
        assert valid == 3

    def test_subset_is_perfect(self):
        p, valid = precision(self._keys("a", "b"), {"X=a", "X=b", "X=c"})
        assert p == 1.0
        assert valid == 2

    def test_disjoint_is_zero(self):
        p, valid = precision(self._keys("a"), {"X=z"})
        assert p == 0.0
        assert valid == 0

    def test_empty_report_not_applicable(self):
        p, valid = precision([], {"X=a"})
        assert p is None
        assert valid == 0

    def test_bounds_and_fp_characterization(self, rng):
        for _ in range(25):
            reported = self._keys(*{str(v) for v in rng.integers(0, 10, 6)})
            truth = {f"X={v}" for v in rng.integers(0, 10, 4)}
            p, valid = precision(reported, truth)
            assert 0.0 <= p <= 1.0
            assert (p == 1.0) == all(key in truth for key in reported)

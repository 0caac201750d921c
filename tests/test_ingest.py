from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings

from comptest import (CsvDialect, INF, SheetError, parse_connection_sheet,
                      parse_resource_sheet, parse_signal_sheet,
                      parse_status_sheet, parse_test_sheet,
                      serialize_connection_sheet, serialize_resource_sheet,
                      serialize_signal_sheet, serialize_status_sheet,
                      serialize_test_sheet, TestSequence, TestStep)
from comptest.stand import Connector

import strategies

STATUS_HEADER = "status;method;attribut;var (x);nom;min;max;D 1;D 2;D 3\n"
DOT = CsvDialect(decimal_separator=".")


def test_status_row_with_scale_variable():
    table = parse_status_sheet(STATUS_HEADER + "Ho;get u;u;UBATT;1;0,7;1,1;;;\n")
    ho = table["Ho"]
    assert ho.method == "get_u"
    assert ho.attribut == "u"
    assert ho.var_x == "UBATT"
    assert ho.nom == Decimal("1")
    assert ho.min == Decimal("0.7")
    assert ho.max == Decimal("1.1")
    assert ho.d1 is None and ho.unit is None


def test_status_row_with_open_circuit():
    table = parse_status_sheet(
        STATUS_HEADER + "Closed;put r;r;;INF;;;INF;5000;5000\n")
    closed = table["Closed"]
    assert closed.method == "put_r"
    assert closed.nom is INF
    assert closed.d1 is INF
    assert closed.d2 == Decimal("5000")
    assert closed.d3 == Decimal("5000")
    assert closed.min is None and closed.max is None


def test_status_bit_literals_kept_verbatim():
    table = parse_status_sheet(STATUS_HEADER + "Off;put can;data;;0001B;;;;;\n")
    assert table["Off"].nom == "0001B"
    assert table["Off"].method == "put_can"


def test_status_malformed_number_has_coordinates():
    with pytest.raises(SheetError) as err:
        parse_status_sheet(STATUS_HEADER + "Bad;get u;u;;1;x7;;;;\n")
    assert err.value.row == 2
    assert err.value.column == "min"


def test_status_number_out_of_range_has_coordinates():
    with pytest.raises(SheetError, match="out of range") as err:
        parse_status_sheet(STATUS_HEADER + "Big;put r;r;;1e9999999999999999999999;;;;;\n")
    assert (err.value.row, err.value.column) == (2, "nom")


@pytest.mark.parametrize("row,column", [
    ("Lo;get u;u;0;0;0;0,3;;;", "var_x"),
    ("Lo;get u;u;a-b;0;0;0,3;;;", "var_x"),
    ("Lo;get-u;u;;0;0;0,3;;;", "method"),
    ("Lo;get u;9u;;0;0;0,3;;;", "attribut"),
])
def test_status_bad_name_has_coordinates(row, column):
    with pytest.raises(SheetError, match="not a valid name") as err:
        parse_status_sheet(STATUS_HEADER + "Ok;put r;r;;1;;;;;\n" + row + "\n")
    assert (err.value.row, err.value.column) == (3, column)


def test_status_duplicate_name_rejected():
    text = STATUS_HEADER + "A;put r;r;;1;;;;;\nA;put r;r;;2;;;;;\n"
    with pytest.raises(SheetError, match="duplicate status"):
        parse_status_sheet(text)


def test_status_header_checks():
    with pytest.raises(SheetError, match="missing column"):
        parse_status_sheet("status;method;attribut\nA;put r;r\n")
    with pytest.raises(SheetError, match="unexpected column"):
        parse_status_sheet(STATUS_HEADER.rstrip("\n") + ";extra\n")


def test_inf_is_case_insensitive():
    table = parse_status_sheet(STATUS_HEADER + "A;put r;r;;inf;;;;;\n")
    assert table["A"].nom is INF


TEST_HEADER = "test step;Δt;IGN_ST;DS_FL;DS_FR;NIGHT;INT_ILL;remarks\n"


def test_test_sheet_sparse_row():
    seq = parse_test_sheet(TEST_HEADER + "0;0,5;Off;;;;;\n1;280;;;;;Ho;\n")
    assert seq.steps[1].index == 1
    assert seq.steps[1].dt == Decimal("280")
    assert seq.steps[1].assignments == {"INT_ILL": "Ho"}


def test_test_sheet_full_row_preserves_column_order():
    seq = parse_test_sheet(
        TEST_HEADER + "0;0,5;Off;Closed;Closed;0;Lo;day: no interior\n")
    step = seq.steps[0]
    assert list(step.assignments) == ["IGN_ST", "DS_FL", "DS_FR", "NIGHT",
                                      "INT_ILL"]
    assert step.dt == Decimal("0.5")
    assert step.remark == "day: no interior"


def test_test_sheet_keeps_one_copy_of_each_status_text():
    seq = parse_test_sheet(TEST_HEADER + "0;1;Off;Closed;Closed;;;\n"
                           "1;1;On;;Closed;;;\n2;1;Off;Closed;;;;\n")
    by_text: dict[str, set[int]] = {}
    for step in seq.steps:
        for status in step.assignments.values():
            by_text.setdefault(status, set()).add(id(status))
    assert set(by_text) == {"Off", "On", "Closed"}
    assert all(len(ids) == 1 for ids in by_text.values())


def test_test_sheet_nonconsecutive_index():
    text = TEST_HEADER + "0;1;;;;;;\n1;1;;;;;;\n3;1;;;;;;\n"
    with pytest.raises(SheetError, match="non-consecutive step index 3"):
        parse_test_sheet(text)


def test_test_sheet_bad_dt():
    with pytest.raises(SheetError, match="> 0"):
        parse_test_sheet(TEST_HEADER + "0;0;;;;;;\n")
    with pytest.raises(SheetError, match="malformed number"):
        parse_test_sheet(TEST_HEADER + "0;abc;;;;;;\n")


def test_test_sheet_misplaced_remarks_column():
    with pytest.raises(SheetError, match="remarks must be the last") as err:
        parse_test_sheet("test step;Δt;remarks;IGN_ST\n0;1;;Off\n")
    assert (err.value.row, err.value.column) == (1, "remarks")


@pytest.mark.parametrize("text,column", [
    ("test step\n0\n", "2"),  # no second column
    ("test step;\n0;1\n", "2"),  # a blank one is named by its position
    ("test step;IGN_ST;Δt\n0;Off;1\n", "IGN_ST"),
])
def test_test_sheet_without_dt_column(text, column):
    # The first column is the step index; it is the second that is wrong.
    with pytest.raises(SheetError) as err:
        parse_test_sheet(text)
    assert str(err.value) == (f"test, row 1, column {column}: second column "
                              f"must be the step duration Δt")


@pytest.mark.parametrize("label", ["Δt", "∆t", "∆ T", "dt", "delta t"])
def test_test_sheet_dt_header_spellings(label):
    # "∆" is U+2206 INCREMENT, which macOS types for Option-J.
    seq = parse_test_sheet(f"test step;{label};A\n0;0,5;Lo\n")
    assert seq.steps[0].dt == Decimal("0.5")


@pytest.mark.parametrize("text,column", [
    ("∆t;Δt;A\n0;1;Lo\n", "∆t"),  # only the second header may read ∆t
    ("test step;∆;A\n0;1;Lo\n", "∆"),
    ("test step;∆x;A\n0;1;Lo\n", "∆x"),
])
def test_test_sheet_increment_sign_only_heads_the_dt_column(text, column):
    with pytest.raises(SheetError) as err:
        parse_test_sheet(text)
    assert (err.value.row, err.value.column) == (1, column)


def test_test_sheet_increment_sign_beyond_the_second_column_is_a_signal():
    seq = parse_test_sheet("test step;Δt;∆t\n0;1;Lo\n")
    assert seq.steps[0].assignments == {"∆t": "Lo"}


def test_test_sheet_signal_named_remark():
    # Before a trailing remarks column, a "remark" header is a signal.
    seq = TestSequence("t", [TestStep(0, Decimal("1"), {"REMARK": "On"},
                                      "note")])
    text = serialize_test_sheet(seq)
    assert text.splitlines()[0] == "test step;Δt;REMARK;remarks"
    assert parse_test_sheet(text, name="t") == seq


SIGNAL_HEADER = "name;direction;pins;initial_status\n"


def test_signal_sheet_multi_pin():
    table = parse_signal_sheet(
        SIGNAL_HEADER + "INT_ILL;output;INT_ILL_F|INT_ILL_R;Lo\n")
    sig = table["INT_ILL"]
    assert sig.pins == ("INT_ILL_F", "INT_ILL_R")
    assert sig.direction == "output"


def test_signal_sheet_single_pin():
    table = parse_signal_sheet(SIGNAL_HEADER + "DS_FL;input;DS_FL;Closed\n")
    assert table["DS_FL"].pins == ("DS_FL",)
    assert table["DS_FL"].initial_status == "Closed"


def test_signal_sheet_duplicate_name():
    text = SIGNAL_HEADER + "A;input;P1;x\nA;input;P2;x\n"
    with pytest.raises(SheetError, match="duplicate signal"):
        parse_signal_sheet(text)


def test_signal_sheet_bad_direction():
    with pytest.raises(SheetError, match="direction"):
        parse_signal_sheet(SIGNAL_HEADER + "A;sideways;P1;x\n")


RESOURCE_HEADER = "res;method;attribut;min;max;unit\n"


def test_resource_sheet_scientific_notation():
    table = parse_resource_sheet(RESOURCE_HEADER + "Ress2;put r;r;0;1,00E+06;Ω\n")
    res = table["Ress2"]
    assert res.method == "put_r"
    assert res.attribut == "r"
    assert res.min == Decimal("0")
    assert res.max == Decimal(10 ** 6)
    assert res.unit == "Ω"


@pytest.mark.parametrize("row,column", [("Ress1;get.u;u;-60;60;V", "method"),
                                        ("Ress1;get u;u-1;-60;60;V", "attribut")])
def test_resource_bad_name_has_coordinates(row, column):
    with pytest.raises(SheetError, match="not a valid name") as err:
        parse_resource_sheet(RESOURCE_HEADER + row + "\n")
    assert (err.value.row, err.value.column) == (2, column)


def test_resource_sheet_negative_range():
    table = parse_resource_sheet(RESOURCE_HEADER + "Ress1;get u;u;-60;60;V\n")
    assert table["Ress1"].min == Decimal("-60")
    assert table["Ress1"].max == Decimal("60")


CONNECTION_HEADER = "res;INT_ILL_F;INT_ILL_R;DS_FL\n"


def test_connection_sheet_cells():
    matrix = parse_connection_sheet(
        CONNECTION_HEADER + "Ress1;Sw1.1;Sw1.2;\nRess3;;;Mx1.1\n")
    assert matrix.pins == ["int_ill_f", "int_ill_r", "ds_fl"]
    assert matrix.cells[("Ress3", "ds_fl")] == Connector("mux", 1, 1)
    assert matrix.connector_for("Ress1", "ds_fl") is None
    # A cell of spaces is as empty as an empty one: not wired.
    matrix = parse_connection_sheet("res;A;B\nR1;   ;Mx1.1\n")
    assert matrix.cells == {("R1", "b"): Connector("mux", 1, 1)}


def test_connection_sheet_bad_syntax():
    with pytest.raises(SheetError, match="connector syntax"):
        parse_connection_sheet(CONNECTION_HEADER + "Ress1;Xy1.1;;\n")
    with pytest.raises(SheetError, match="connector syntax"):
        parse_connection_sheet(CONNECTION_HEADER + "Ress1;Sw1;;\n")
    with pytest.raises(SheetError, match="connector syntax"):
        parse_connection_sheet(CONNECTION_HEADER + "Ress1;Sw١.١;;\n")


def test_connection_sheet_bounds_connector_digits():
    # A group or position of more than 640 digits breaks the connector
    # rule, in its own words, before ``int`` could meet the interpreter's
    # limit on long int strings.
    long = "1" * 641
    assert parse_connection_sheet(
        "res;A\nR1;Mx" + long[1:] + "." + long[1:] + "\n").cells[
            "R1", "a"].group == int(long[1:])
    for cell in ("Mx" + long + ".1", "Sw1." + long, "Mx" + "1" * 5000 + ".1"):
        with pytest.raises(SheetError) as err:
            parse_connection_sheet(CONNECTION_HEADER + f"Ress1;;;{cell}\n")
        assert str(err.value) == (f"connections, row 2, column ds_fl: unknown "
                                  f"connector syntax {cell!r} (expected SwN.M "
                                  f"or MxN.M)")


@pytest.mark.parametrize("parse,text,message", [
    (parse_resource_sheet, "method;attribut;min;max;unit\nget u;u;0;1;V\n",
     "resources, row 1, column res: missing column 'res'"),
    (parse_resource_sheet, "res;method;method;attribut;min;max;unit\n",
     "resources, row 1, column method: duplicate column 'method'"),
    (parse_test_sheet, "step no;Δt;A\n0;1;Lo\n",
     "test, row 1, column step no: first column must be the test step "
     "index"),
    (parse_signal_sheet, "name;direction;pins;initial_status\n",
     "signals: signal sheet has no rows"),
    (parse_connection_sheet, "res;A\nR1;Mx1.1;Mx2.1\n",
     "connections, row 2, column 3: cell 'Mx2.1' is beyond the header's "
     "last column"),
    (parse_test_sheet, "test step;Δt;A\n0;1;Lo;Hi\n",
     "test, row 2, column 4: cell 'Hi' is beyond the header's last column"),
    # A leading byte order mark is not part of the first header cell.
    (parse_resource_sheet, "\ufeffrez;method;attribut;min;max;unit\n",
     "resources, row 1, column rez: unexpected column 'rez'"),
], ids=["resources-no-res-column", "resources-duplicate-column",
        "test-no-step-column", "signals-no-rows", "connections-extra-cell",
        "test-extra-cell", "resources-byte-order-mark"])
def test_sheet_frame_faults(parse, text, message):
    with pytest.raises(SheetError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("label", ["res", "Ress", "RESOURCE"])
def test_both_stand_sheets_take_one_resource_id_header(label):
    matrix = parse_connection_sheet(f"{label};A\nR1;Mx1.1\n")
    assert matrix.rows == ["R1"]
    table = parse_resource_sheet(f"{label};method;attribut;min;max;unit\n"
                                 f"R1;put r;r;0;1;Ω\n")
    assert [res.id for res in table] == ["R1"]


def test_dialect_independence_on_values():
    comma = parse_status_sheet(STATUS_HEADER + "Lo;get u;u;UBATT;0;0;0,3;;;\n")
    dot = parse_status_sheet(
        "status;method;attribut;var (x);nom;min;max;D 1;D 2;D 3\n"
        "Lo;get u;u;UBATT;0;0;0.3;;;\n", DOT)
    assert comma.statuses == dot.statuses


def test_wrong_decimal_separator_is_rejected():
    with pytest.raises(SheetError, match="malformed number"):
        parse_status_sheet(STATUS_HEADER + "Lo;get u;u;;0;0;0.3;;;\n")
    with pytest.raises(SheetError, match="malformed number"):
        parse_status_sheet(
            "status;method;attribut;var (x);nom;min;max;D 1;D 2;D 3\n"
            "Lo;get u;u;;0;0;0,3;;;\n", DOT)


def test_dialect_validation():
    with pytest.raises(ValueError):
        CsvDialect(field_separator=";", decimal_separator=";")
    with pytest.raises(ValueError):
        CsvDialect(field_separator="ab")


RESOURCE_ROW = "R1;get u;u;-60;60;V\n"


@pytest.mark.parametrize("parse,text,where", [
    (parse_status_sheet, STATUS_HEADER + "A;put r;r;;1;;;;;\nA;put r;r;;2;;;;;\n",
     ("statuses", 3, "status")),
    (parse_status_sheet, STATUS_HEADER + "A;put-r;r;;1;;;;;\n",
     ("statuses", 2, "method")),
    (parse_status_sheet, STATUS_HEADER + "A;put r;r.1;;1;;;;;\n",
     ("statuses", 2, "attribut")),
    (parse_status_sheet, STATUS_HEADER + "A;get u;u;9x;;0;1;;;\n",
     ("statuses", 2, "var_x")),
    (parse_status_sheet, STATUS_HEADER + "A;put r;r;;1;;;;;\nB;get u;u;;;;;;;\n",
     ("statuses", 3, "min")),
    (parse_status_sheet, STATUS_HEADER + "A;put r;r;;;0;1;;;\n",
     ("statuses", 2, "nom")),
    (parse_status_sheet, STATUS_HEADER + "A;put can;data;UBATT;0001B;;;;;\n",
     ("statuses", 2, "nom")),
    (parse_signal_sheet, SIGNAL_HEADER + "A;input;P1;x\nA;input;P2;x\n",
     ("signals", 3, "name")),
    (parse_signal_sheet, SIGNAL_HEADER + "A;input;P1;x\nB;input;P1;x\n",
     ("signals", 3, "pins")),
    (parse_signal_sheet, SIGNAL_HEADER + "A;input;P1|P1;x\n",
     ("signals", 2, "pins")),
    (parse_signal_sheet, SIGNAL_HEADER + "A;sideways;P1;x\n",
     ("signals", 2, "direction")),
    (parse_test_sheet, TEST_HEADER + "0;1;;;;;;\n2;1;;;;;;\n",
     ("test", 3, "test step")),
    (parse_test_sheet, TEST_HEADER + "0;1;;;;;;\n1;0;;;;;;\n",
     ("test", 3, "Δt")),
    (parse_test_sheet, TEST_HEADER + "²;1;;;;;;\n", ("test", 2, "test step")),
    (parse_test_sheet, TEST_HEADER + "٠;1;;;;;;\n", ("test", 2, "test step")),
    (parse_test_sheet, TEST_HEADER + "0;-1;;;;;;\n", ("test", 2, "Δt")),
    # A text read once is still refused at the first row that holds it.
    (parse_test_sheet, TEST_HEADER + "0;1;;;;;;\n1;0;;;;;;\n2;0;;;;;;\n",
     ("test", 3, "Δt")),
    (parse_test_sheet, TEST_HEADER, ("test", None, None)),
    (parse_resource_sheet, RESOURCE_HEADER + RESOURCE_ROW + RESOURCE_ROW,
     ("resources", 3, "res")),
    (parse_resource_sheet, RESOURCE_HEADER + "R1;get u;u;5;1;V\n",
     ("resources", 2, "min")),
    (parse_resource_sheet, RESOURCE_HEADER + "R1;get.u;u;-60;60;V\n",
     ("resources", 2, "method")),
    (parse_resource_sheet, RESOURCE_HEADER + "R1;get u;9u;-60;60;V\n",
     ("resources", 2, "attribut")),
    # Identifiers hold no character an XML script cannot hold.
    (parse_signal_sheet, SIGNAL_HEADER + "IG\x01N_ST;input;P1;x\n",
     ("signals", 2, "name")),
    (parse_signal_sheet, SIGNAL_HEADER + "A;input;P1|P\ufffe;x\n",
     ("signals", 2, "pins")),
    (parse_signal_sheet, SIGNAL_HEADER + "A;input;P1;x\x1b\n",
     ("signals", 2, "initial_status")),
    (parse_status_sheet, STATUS_HEADER + "L\x08o;put r;r;;1;;;;;\n",
     ("statuses", 2, "status")),
    (parse_test_sheet, TEST_HEADER + "0;1;O\x01f;;;;;\n",
     ("test", 2, "IGN_ST")),
    (parse_test_sheet, TEST_HEADER + "0;1;;;;;;\n1;1;;O\x01f;;;;\n"
     "2;1;O\x01f;;;;;\n", ("test", 3, "DS_FL")),
    (parse_test_sheet, "test step;Δt;A\udfffB\n0;1;Lo\n",
     ("test", 1, "3")),
    (parse_resource_sheet, RESOURCE_HEADER + "R\x0e1;get u;u;-60;60;V\n",
     ("resources", 2, "res")),
    (parse_connection_sheet, "res;a\uffffb\nR1;Mx1.1\n",
     ("connections", 1, "2")),
])
def test_table_rule_errors_have_coordinates(parse, text, where):
    with pytest.raises(SheetError) as err:
        parse(text)
    assert (err.value.sheet, err.value.row, err.value.column) == where


# Per parser: the sheet, a header, a valid row and a row with a bad name.
FRAMES = [
    (parse_status_sheet, "statuses", STATUS_HEADER.rstrip("\n"),
     "Lo;put r;r;;5;;;;;", "L o;put r;r;;5;;;;;"),
    (parse_signal_sheet, "signals", "name;direction;pins;initial_status",
     "A;input;a;Lo", "A B;input;b;Lo"),
    (parse_test_sheet, "test", "test step;Δt;A", "0;1;Lo", "1;1;L o"),
    (parse_resource_sheet, "resources", "res;method;attribut;min;max;unit",
     "R1;put r;r;0;10;Ω", "R 2;put r;r;0;10;Ω"),
    (parse_connection_sheet, "connections", "res;a", "R1;Mx1.1", "R 2;Mx1.2"),
]


@pytest.mark.parametrize("parse,sheet,header,good,bad", FRAMES,
                         ids=[frame[1] for frame in FRAMES])
def test_sheet_frame(parse, sheet, header, good, bad):
    with pytest.raises(SheetError, match="missing header row") as err:
        parse("")
    assert (err.value.sheet, err.value.row) == (sheet, 1)
    # A blank line and a row of separators only are skipped, and the rows
    # after them keep their 1-based numbers (the header is row 1).
    parse(f"{header}\n\n ; ;\n{good}\n")
    with pytest.raises(SheetError) as err:
        parse(f"{header}\n\n ; ;\n{good}\n{bad}\n")
    assert (err.value.sheet, err.value.row) == (sheet, 5)
    # A cell beyond the header's last column is refused at its row, named
    # by its position; blank ones are not cells.
    parse(f"{header}\n{good}; ;\n")
    width = len(header.split(";"))
    with pytest.raises(SheetError, match="beyond the header's last column"
                       ) as err:
        parse(f"{header}\n{good}\n{good}; ;x\n")
    assert (err.value.sheet, err.value.row, err.value.column) == \
        (sheet, 3, str(width + 2))
    # The csv module refuses a field over its size limit: a SheetError at
    # the row that holds it.
    with pytest.raises(SheetError, match="field limit") as err:
        parse(f"{header}\n{good}\n{'x' * 140000}\n")
    assert (err.value.sheet, err.value.row) == (sheet, 3)
    # A NUL is refused at the row that holds it, as Python 3.10's csv
    # module refuses it, on every Python.
    with pytest.raises(SheetError, match="line contains NUL$") as err:
        parse(f"{header}\n{good}\n \x00\n")
    assert (err.value.sheet, err.value.row) == (sheet, 3)


def test_a_nul_in_the_header_is_refused_on_every_python():
    with pytest.raises(SheetError) as err:
        parse_resource_sheet("res;me\x00thod;attribut;min;max;unit\n"
                             "R1;put_r;r;0;1;Ohm\n")
    assert str(err.value) == "resources, row 1: line contains NUL"


SHIPPED = Path(__file__).resolve().parents[1] / "data" / "interior_light"


@pytest.mark.parametrize("parse,name", [
    (parse_signal_sheet, "signals.csv"),
    (parse_status_sheet, "statuses.csv"),
    (parse_test_sheet, "test_interior_light.csv"),
    (parse_resource_sheet, "resources.csv"),
    (parse_connection_sheet, "connections.csv"),
])
def test_shipped_sheets_parse_alike_with_a_byte_order_mark(parse, name):
    # As a "CSV UTF-8" export is read by Path.read_text(encoding="utf-8").
    text = (SHIPPED / name).read_text(encoding="utf-8")
    assert parse("\ufeff" + text) == parse(text)


@pytest.mark.parametrize("rows,column", [
    ("IGN_ST;input;P1;x\nign_st;input;P2;x\n", "name"),
    ("IGN_ST;input;IGN_ST;x\nB;input;ign_st;x\n", "pins"),
])
def test_signal_names_and_pins_are_unique_ignoring_case(rows, column):
    # The script spells both in lowercase: a clash there is refused here.
    with pytest.raises(SheetError, match="ignoring case") as err:
        parse_signal_sheet(SIGNAL_HEADER + rows)
    assert (err.value.sheet, err.value.row, err.value.column) == \
        ("signals", 3, column)


@settings(max_examples=60)
@given(table=strategies.status_tables())
def test_status_round_trip(table):
    assert parse_status_sheet(serialize_status_sheet(table)).statuses \
        == table.statuses


@settings(max_examples=60)
@given(table=strategies.status_tables())
def test_status_round_trip_dot_dialect(table):
    text = serialize_status_sheet(table, DOT)
    assert parse_status_sheet(text, DOT).statuses == table.statuses


@settings(max_examples=60)
@given(table=strategies.signal_tables())
def test_signal_round_trip(table):
    assert parse_signal_sheet(serialize_signal_sheet(table)).signals \
        == table.signals


@settings(max_examples=60)
@given(test=strategies.test_sequences())
def test_test_sheet_round_trip(test):
    parsed = parse_test_sheet(serialize_test_sheet(test), name=test.name)
    assert parsed == test


@settings(max_examples=40)
@given(table=strategies.resource_tables())
def test_resource_round_trip(table):
    assert parse_resource_sheet(serialize_resource_sheet(table)).resources \
        == table.resources


@settings(max_examples=40)
@given(matrix=strategies.connection_matrices())
def test_connection_round_trip(matrix):
    assert parse_connection_sheet(serialize_connection_sheet(matrix)) == matrix

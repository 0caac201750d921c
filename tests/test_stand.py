import gc
import io
import random
import sys
import time
from decimal import Decimal

import pytest

from comptest import (AllocationError, ConnectionMatrix, Connector,
                      DutError, InteriorLightConfig, InteriorLightDut,
                      MethodInvocation, Requirement, ResourceDef,
                      ResourceTable, SheetError, StandModel, allocate,
                      build_dut, execute, load_script, parse_connector,
                      report_to_json, INF)
from comptest.runner import drive, plan
from comptest.stand import Holds, _Search

from oracles import (assert_allocation_sound, enumeration_feasible,
                     first_feasible, random_block_sequence, random_stand_case)


def put_r(value, **extra):
    return MethodInvocation("put_r", {"r": value, **extra})


def get_u(low="0", high="60"):
    return MethodInvocation("get_u", {"u_max": Decimal(high),
                                      "u_min": Decimal(low)})


def test_parse_connector():
    assert parse_connector("Sw1.1") == Connector("switch", 1, 1)
    assert parse_connector("Mx4.2") == Connector("mux", 4, 2)
    assert str(parse_connector("Mx12.3")) == "Mx12.3"
    for bad in ("Xy1.1", "Sw1", "sw1.1", "Mx1.2.3", ""):
        with pytest.raises(ValueError):
            parse_connector(bad)


def test_resource_invariants():
    with pytest.raises(ValueError, match="min"):
        ResourceDef("R", "put_r", "r", Decimal("2"), Decimal("1"))
    with pytest.raises(ValueError, match="duplicate resource"):
        ResourceTable([ResourceDef("R", "put_r", "r", Decimal(0), Decimal(1)),
                       ResourceDef("R", "get_u", "u", Decimal(0), Decimal(1))])


@pytest.mark.parametrize("method,attribut", [("put r", "r"), ("9put", "r"),
                                             ("put_r", "r-1"), ("put_r", "")])
def test_resource_def_rejects_bad_method_or_attribut(method, attribut):
    with pytest.raises(ValueError, match="is not a valid name"):
        ResourceDef("R", method, attribut, Decimal(0), Decimal(1))


def test_stand_rejects_unknown_matrix_rows():
    resources = ResourceTable([ResourceDef("R1", "put_r", "r", Decimal(0),
                                           Decimal(10))])
    matrix = ConnectionMatrix(["p"], ["R9"], {("R9", "p"):
                                              Connector("mux", 1, 1)})
    with pytest.raises(SheetError) as err:
        StandModel(resources, matrix)
    assert str(err.value) == ("connections, column res: resource 'R9' is not "
                              "in the resource table")
    assert (err.value.sheet, err.value.column) == ("connections", "res")
    # Built from a sheet, the matrix knows the row.
    matrix = ConnectionMatrix(matrix.pins, matrix.rows, matrix.cells,
                              {"R9": 4})
    with pytest.raises(SheetError) as err:
        StandModel(resources, matrix)
    assert str(err.value) == ("connections, row 4, column res: resource 'R9' "
                              "is not in the resource table")


def test_voltage_check_binds_dvm_via_switch(demo_stand):
    alloc = allocate([Requirement("int_ill_f", get_u())], demo_stand)
    binding = alloc.bindings[0]
    assert binding.resource_id == "Ress1"
    assert str(binding.connector) == "Sw1.1"
    assert_allocation_sound([Requirement("int_ill_f", get_u())], demo_stand,
                            alloc)


def test_row_order_tie_break_prefers_first_decade(demo_stand):
    reqs = [Requirement("ds_fl", put_r(Decimal("0")))]
    alloc = allocate(reqs, demo_stand)
    assert alloc.bindings[0].resource_id == "Ress2"
    assert str(alloc.bindings[0].connector) == "Mx1.2"
    assert_allocation_sound(reqs, demo_stand, alloc)


def test_out_of_range_resistance_names_both_decades(demo_stand):
    with pytest.raises(AllocationError) as err:
        allocate([Requirement("ds_fl", put_r(Decimal("5e6")))], demo_stand)
    reasons = dict(err.value.candidates)
    assert reasons["Ress2"].startswith("range")
    assert reasons["Ress3"].startswith("range")
    assert "no method" in reasons["Ress1"]
    assert err.value.parameter == "r"
    assert err.value.pin == "ds_fl"


def test_two_simultaneous_resistances_use_both_decades(demo_stand):
    reqs = [Requirement("ds_fl", put_r(Decimal("1"))),
            Requirement("ds_fr", put_r(Decimal("1")))]
    alloc = allocate(reqs, demo_stand)
    assert [b.resource_id for b in alloc.bindings] == ["Ress2", "Ress3"]
    assert_allocation_sound(reqs, demo_stand, alloc)


def test_third_simultaneous_resistance_fails(demo_stand):
    reqs = [Requirement("ds_fl", put_r(Decimal("1"))),
            Requirement("ds_fr", put_r(Decimal("1"))),
            Requirement("ds_rl", put_r(Decimal("1")))]
    with pytest.raises(AllocationError) as err:
        allocate(reqs, demo_stand)
    assert err.value.pin == "ds_rl"
    assert any("conflict" in reason for _, reason in err.value.candidates)


def test_removing_a_decade_makes_pair_infeasible(demo_stand):
    reduced = StandModel(
        ResourceTable([r for r in demo_stand.resources if r.id != "Ress3"]),
        ConnectionMatrix(demo_stand.matrix.pins,
                         [r for r in demo_stand.matrix.rows if r != "Ress3"],
                         {k: v for k, v in demo_stand.matrix.cells.items()
                          if k[0] != "Ress3"}))
    reqs = [Requirement("ds_fl", put_r(Decimal("1"))),
            Requirement("ds_fr", put_r(Decimal("1")))]
    assert not enumeration_feasible(reqs, reduced)
    with pytest.raises(AllocationError):
        allocate(reqs, reduced)


def test_open_circuit_consumes_no_resource(demo_stand):
    reqs = [Requirement("ds_fl", put_r(INF, d1=INF, d2=Decimal("5000")))]
    alloc = allocate(reqs, demo_stand)
    assert alloc.bindings[0].delivery == "open_circuit"
    assert alloc.bindings[0].resource_id is None


def test_bus_methods_consume_no_resource(demo_stand):
    reqs = [Requirement("night", MethodInvocation("put_can", {"data": "1B"}))]
    alloc = allocate(reqs, demo_stand)
    assert alloc.bindings[0].delivery == "bus"
    assert alloc.bindings[0].resource_id is None


def test_checks_time_share_the_dvm(demo_stand):
    reqs = [Requirement("int_ill_f", get_u()),
            Requirement("int_ill_r", get_u())]
    alloc = allocate(reqs, demo_stand)
    assert [b.resource_id for b in alloc.bindings] == ["Ress1", "Ress1"]
    assert [str(b.connector) for b in alloc.bindings] == ["Sw1.1", "Sw1.2"]
    assert_allocation_sound(reqs, demo_stand, alloc)


def test_unchanged_held_stimulus_is_pinned(demo_stand):
    # ds_fr comes first and would take Ress2 if ds_fl were searched.
    fl = Requirement("ds_fl", put_r(Decimal("0")))
    holds = Holds()
    first = allocate([fl], demo_stand, holds)
    assert not first.bindings[0].held
    # The run holds one shape of binding: a held copy of each searched put.
    assert all(b.held for b in holds.by_pin.values())
    held = dict(holds.by_pin)
    reqs = [Requirement("ds_fr", put_r(Decimal("1"))), fl]
    second = allocate(reqs, demo_stand, holds)
    assert all(b.held for b in holds.by_pin.values())
    by_pin = {b.requirement.pin: b for b in second.bindings}
    assert by_pin["ds_fl"] is held["ds_fl"]  # handed back as it is
    assert by_pin["ds_fl"].resource_id == "Ress2"
    assert by_pin["ds_fl"].held
    assert by_pin["ds_fr"].resource_id == "Ress3"
    assert_allocation_sound(reqs, demo_stand, second, held)


def test_only_the_same_requirements_are_pinned(demo_stand):
    # A held binding passed its own requirement again is handed back as it
    # is; a fresh but equal requirement is searched: it keeps its resource,
    # as it tries that one first, but is not held.
    def reqs():
        return [Requirement("ds_fl", put_r(Decimal("0"))),
                Requirement("ds_fr", put_r(Decimal("1")))]

    same = reqs()
    holds, other = Holds(), Holds()
    first = allocate(same, demo_stand, holds)
    pinned = allocate(same, demo_stand, holds)
    again = allocate(same, demo_stand, holds)
    for _ in range(2):  # other holds what holds held before ``again``
        allocate(same, demo_stand, other)
    fresh = allocate(reqs(), demo_stand, other)

    def placed(alloc):
        return [(b.requirement.pin, b.resource_id, b.connector)
                for b in alloc.bindings]

    assert not any(b.held for b in first.bindings)
    assert placed(again) == placed(fresh) == placed(pinned) == placed(first)
    assert all(b.held for b in pinned.bindings)
    assert not any(b.held for b in fresh.bindings)
    assert all(a is b for a, b in zip(again.bindings, pinned.bindings))


def test_requirements_are_read_only():
    # A held binding is handed back without a second look at its
    # requirement, so a requirement cannot change once made.
    req = Requirement("ds_fl", put_r(Decimal("0")))
    with pytest.raises(AttributeError):
        req.invocation = put_r(Decimal("7"))


def test_changed_stimulus_prefers_previous_resource(demo_stand):
    holds = Holds()
    allocate([Requirement("ds_fl", put_r(Decimal("0")))], demo_stand, holds)
    second = allocate([Requirement("ds_fl", put_r(Decimal("7")))], demo_stand,
                      holds)
    assert second.bindings[0].resource_id == "Ress2"
    assert not second.bindings[0].held


def _two_decades_one_pin_stand():
    resources = ResourceTable([
        ResourceDef("A", "put_r", "r", Decimal(0), Decimal(1000)),
        ResourceDef("B", "put_r", "r", Decimal(0), Decimal(1000)),
    ])
    matrix = ConnectionMatrix(
        ["p1", "p2"], ["A", "B"],
        {("A", "p1"): Connector("mux", 1, 1),
         ("A", "p2"): Connector("mux", 2, 1),
         ("B", "p1"): Connector("mux", 3, 1)})
    return StandModel(resources, matrix)


def test_pinned_hold_can_block_allocation():
    # p2 is only reachable through A; while A holds an unchanged stimulus
    # on p1 the pair is infeasible, even though swapping would work.
    stand = _two_decades_one_pin_stand()
    p1 = Requirement("p1", put_r(Decimal("5")))
    holds = Holds()
    allocate([p1], stand, holds)
    held = dict(holds.by_pin)
    assert held["p1"].resource_id == "A"
    reqs = [p1, Requirement("p2", put_r(Decimal("5")))]
    with pytest.raises(AllocationError):
        allocate(reqs, stand, holds)
    assert not enumeration_feasible(reqs, stand, held)
    # A failed block leaves the holds as they were.
    assert holds.by_pin == held
    assert holds.res == {"A": "p1"}
    assert holds.grp == {("mux", 1): "p1"}


def test_a_check_blocked_by_a_held_group_names_that_hold():
    # The put on p is held on R through Mx1.1; the check's one voltmeter V
    # reaches q through Mx1.2. Held engagements are fixed for the block, so
    # no choice of the changed stimuli on t0 and t1 frees the group; today
    # the search still tries every combination of them before it fails.
    resources = ResourceTable([
        ResourceDef("R", "put_r", "r", Decimal(0), Decimal(10)),
        ResourceDef("V", "get_u", "u", Decimal(-60), Decimal(60)),
        *(ResourceDef(f"T{r}", "put_r", "r", Decimal(0), Decimal(10))
          for r in range(4))])
    cells = {("R", "p"): Connector("mux", 1, 1),
             ("V", "q"): Connector("mux", 1, 2),
             **{(f"T{r}", f"t{r // 2}"): Connector("mux", 2 + r, 1)
                for r in range(4)}}
    stand = StandModel(resources, ConnectionMatrix(
        ["p", "q", "t0", "t1"], [res.id for res in resources], cells))
    p = Requirement("p", put_r(Decimal("5")))
    holds = Holds()
    allocate([p], stand, holds)
    reqs = [p, Requirement("t0", put_r(Decimal("5"))),
            Requirement("t1", put_r(Decimal("5"))), Requirement("q", get_u())]
    with pytest.raises(AllocationError) as err:
        allocate(reqs, stand, holds)
    assert str(err.value) == (
        "no resource satisfies (pin q, method get_u); rejected candidates: "
        "R: no method (supports put_r); "
        "V: conflict: connector group Mx1 is engaged for pin p; "
        + "; ".join(f"T{r}: no method (supports put_r)" for r in range(4)))
    assert (holds.res, holds.grp) == ({"R": "p"}, {("mux", 1): "p"})


def test_failed_block_leaves_the_holds_as_they_were():
    # The changed p1 stimulus is out of range: its old binding, released
    # for the search, is engaged again when the block fails.
    stand = _two_decades_one_pin_stand()
    holds = Holds()
    allocate([Requirement("p1", put_r(Decimal("5")))], stand, holds)
    held = dict(holds.by_pin)
    with pytest.raises(AllocationError):
        allocate([Requirement("p1", put_r(Decimal("5000")))], stand, holds)
    assert holds.by_pin == held
    assert all(holds.by_pin[pin] is b for pin, b in held.items())
    assert (holds.res, holds.grp) == (
        {"A": "p1"}, {("mux", 1): "p1"})


def test_fresh_equal_requirement_may_move():
    # An equal requirement that is not the held one is searched, so it
    # moves to B and frees A for p2; neither binding is held.
    stand = _two_decades_one_pin_stand()
    holds = Holds()
    allocate([Requirement("p1", put_r(Decimal("5")))], stand, holds)
    held = dict(holds.by_pin)
    reqs = [Requirement("p1", put_r(Decimal("5"))),
            Requirement("p2", put_r(Decimal("5")))]
    alloc = allocate(reqs, stand, holds)
    assert [(b.resource_id, b.held) for b in alloc.bindings] == [
        ("B", False), ("A", False)]
    assert first_feasible(reqs, stand, held) == ["B", "A"]
    assert_allocation_sound(reqs, stand, alloc, held)


def test_changed_value_allows_reshuffle():
    # Same shape, but the p1 stimulus changes value, so it may move to B
    # and free A for p2.
    stand = _two_decades_one_pin_stand()
    holds = Holds()
    allocate([Requirement("p1", put_r(Decimal("5")))], stand, holds)
    held = dict(holds.by_pin)
    reqs = [Requirement("p1", put_r(Decimal("9"))),
            Requirement("p2", put_r(Decimal("5")))]
    alloc = allocate(reqs, stand, holds)
    by_pin = {b.requirement.pin: b.resource_id for b in alloc.bindings}
    assert by_pin == {"p1": "B", "p2": "A"}
    assert_allocation_sound(reqs, stand, alloc, held)


def test_group_exclusivity_between_stimuli():
    resources = ResourceTable([
        ResourceDef("A", "put_r", "r", Decimal(0), Decimal(10)),
        ResourceDef("B", "put_r", "r", Decimal(0), Decimal(10)),
    ])
    matrix = ConnectionMatrix(
        ["p1", "p2"], ["A", "B"],
        {("A", "p1"): Connector("mux", 1, 1),
         ("B", "p2"): Connector("mux", 1, 2)})  # same group
    stand = StandModel(resources, matrix)
    reqs = [Requirement("p1", put_r(Decimal("1"))),
            Requirement("p2", put_r(Decimal("1")))]
    with pytest.raises(AllocationError, match="group"):
        allocate(reqs, stand)
    assert not enumeration_feasible(reqs, stand)


def test_check_cannot_share_group_with_stimulus():
    resources = ResourceTable([
        ResourceDef("DVM", "get_u", "u", Decimal(-60), Decimal(60)),
        ResourceDef("DEC", "put_r", "r", Decimal(0), Decimal(10)),
    ])
    matrix = ConnectionMatrix(
        ["p1", "p2"], ["DVM", "DEC"],
        {("DVM", "p1"): Connector("switch", 1, 1),
         ("DEC", "p2"): Connector("switch", 1, 2)})
    stand = StandModel(resources, matrix)
    reqs = [Requirement("p2", put_r(Decimal("1"))),
            Requirement("p1", get_u())]
    with pytest.raises(AllocationError):
        allocate(reqs, stand)
    assert not enumeration_feasible(reqs, stand)


@pytest.mark.parametrize("checks_first", [True, False])
def test_checks_are_placed_after_the_stimuli(checks_first):
    # Rg0 and Rp0 share group Mx1. The stimulus takes its first resource
    # whatever the order, and the check the voltmeter left free.
    resources = ResourceTable([
        ResourceDef("Rg0", "get_u", "u", Decimal(-60), Decimal(60)),
        ResourceDef("Rg1", "get_u", "u", Decimal(-60), Decimal(60)),
        ResourceDef("Rp0", "put_r", "r", Decimal(0), Decimal(10)),
        ResourceDef("Rp1", "put_r", "r", Decimal(0), Decimal(10)),
    ])
    matrix = ConnectionMatrix(
        ["pg", "pp"], ["Rg0", "Rg1", "Rp0", "Rp1"],
        {("Rg0", "pg"): Connector("mux", 1, 1),
         ("Rg1", "pg"): Connector("mux", 2, 1),
         ("Rp0", "pp"): Connector("mux", 1, 2),
         ("Rp1", "pp"): Connector("mux", 3, 1)})
    stand = StandModel(resources, matrix)
    reqs = [Requirement("pg", get_u()), Requirement("pp", put_r(Decimal("1")))]
    if not checks_first:
        reqs.reverse()
    alloc = allocate(reqs, stand)
    by_pin = {b.requirement.pin: b.resource_id for b in alloc.bindings}
    assert by_pin == {"pp": "Rp0", "pg": "Rg1"}
    assert first_feasible(reqs, stand) == [by_pin[r.pin] for r in reqs]
    assert_allocation_sound(reqs, stand, alloc)


def test_infeasible_check_after_many_fails_in_linear_time(monkeypatch):
    # Each of the first 12 checks could take V1 or V2. The last is in range
    # on V3 and V4, but at each leaf the two stimuli engage both of their
    # mux groups. Retrying the earlier checks' choices would take 2^12
    # nodes per leaf, although checks constrain nothing but themselves.
    resources = ResourceTable([
        *(ResourceDef(f"V{r}", "get_u", "u", Decimal(-60), Decimal(60))
          for r in (1, 2, 3, 4)),
        *(ResourceDef(f"S{r}", "put_r", "r", Decimal(0), Decimal(100))
          for r in (1, 2, 3, 4))])
    pins = [f"p{j}" for j in range(13)]
    cells = {(f"V{r}", pin): Connector("switch", r, j + 1)
             for r in (1, 2) for j, pin in enumerate(pins[:-1])}
    cells["V3", "p12"] = Connector("mux", 3, 1)
    cells["V4", "p12"] = Connector("mux", 4, 1)
    for n, (rid, pin) in enumerate([("S1", "s0"), ("S2", "s0"),
                                    ("S3", "s1"), ("S4", "s1")]):
        cells[rid, pin] = Connector("mux", 3 + n % 2, 2 + n // 2)
    matrix = ConnectionMatrix([*pins, "s0", "s1"],
                              [res.id for res in resources], cells)
    reqs = [Requirement(pin, get_u()) for pin in pins]
    reqs += [Requirement(pin, put_r(Decimal("5"))) for pin in ("s0", "s1")]
    calls = []
    checks = _Search._checks

    def counting(self):
        calls.append(self)
        return checks(self)

    monkeypatch.setattr(_Search, "_checks", counting)
    with pytest.raises(AllocationError) as err:
        allocate(reqs, StandModel(resources, matrix))
    assert str(err.value) == (
        "no resource satisfies (pin p12, method get_u); rejected candidates: "
        "V1: no connection; V2: no connection; "
        "V3: conflict: connector group Mx3 is engaged for pin s1; "
        "V4: conflict: connector group Mx4 is engaged for pin s0; "
        + "; ".join(f"S{r}: no method (supports put_r)" for r in (1, 2, 3, 4)))
    assert 0 < len(calls) <= 4 * len(reqs) * len(resources)


def _two_each_and_an_unwired_check(n):
    """n stimulus pins, each wired to two resources of its own on groups
    of their own, and a check on a pin no resource is wired to."""
    resources = ResourceTable([
        ResourceDef(f"R{r}", "put_r", "r", Decimal(0), Decimal(10))
        for r in range(2 * n)])
    pins = [f"p{j}" for j in range(n)]
    matrix = ConnectionMatrix(
        [*pins, "q"], [res.id for res in resources],
        {(f"R{r}", pins[r // 2]): Connector("mux", r, 1)
         for r in range(2 * n)})
    reqs = [Requirement(pin, put_r(Decimal("5"))) for pin in pins]
    reqs.append(Requirement("q", get_u()))
    return StandModel(resources, matrix), reqs


def test_unservable_check_fails_before_the_search():
    # The check would fail every leaf, and there are 2^16 of them.
    stand, reqs = _two_each_and_an_unwired_check(16)
    start = time.perf_counter()
    with pytest.raises(AllocationError) as err:
        allocate(reqs, stand)
    assert time.perf_counter() - start < 0.25
    assert str(err.value) == (
        "no resource satisfies (pin q, method get_u); rejected candidates: "
        + "; ".join(f"R{r}: no method (supports put_r)" for r in range(32)))


@pytest.mark.parametrize("reqs", [
    # The stimuli alone cannot be placed: the check is named, not pin b.
    [Requirement("a", put_r(Decimal("1"))),
     Requirement("b", put_r(Decimal("1"))), Requirement("q", get_u())],
    # The check on c fails at every leaf: the one on q is named instead.
    [Requirement("a", put_r(Decimal("1"))), Requirement("c", get_u()),
     Requirement("q", get_u())],
], ids=["stimuli", "earlier-check"])
def test_unservable_check_is_named_first(reqs):
    # A check no resource can serve is named even where the search would
    # never have reached it with every earlier check placed.
    resources = ResourceTable([
        ResourceDef("R", "put_r", "r", Decimal(0), Decimal(10)),
        ResourceDef("V", "get_u", "u", Decimal(-60), Decimal(60))])
    stand = StandModel(resources, ConnectionMatrix(
        ["a", "b", "c", "q"], ["R", "V"],
        {("R", "a"): Connector("mux", 1, 1), ("R", "b"): Connector("mux", 1, 2),
         ("V", "c"): Connector("mux", 1, 3)}))
    with pytest.raises(AllocationError) as err:
        allocate(reqs, stand)
    assert str(err.value) == (
        "no resource satisfies (pin q, method get_u); rejected candidates: "
        "R: no method (supports put_r); V: no connection")


def test_search_matches_enumeration_on_random_stands():
    rng = random.Random(20260810)
    agree_feasible = agree_infeasible = 0
    for _ in range(60):
        stand, reqs = random_stand_case(rng)
        expected = enumeration_feasible(reqs, stand)
        try:
            alloc = allocate(reqs, stand)
        except AllocationError:
            assert not expected
            agree_infeasible += 1
        else:
            assert expected
            assert_allocation_sound(reqs, stand, alloc)
            agree_feasible += 1
    # Make sure the generator exercises both outcomes.
    assert agree_feasible > 5 and agree_infeasible > 5


def test_search_picks_the_first_feasible_assignment():
    # Pruning may only cut subtrees without a solution: the choice is the
    # brute-force first assignment in row order, stand by stand.
    rng = random.Random(20261017)
    feasible = 0
    for _ in range(400):
        stand, reqs = random_stand_case(rng)
        expected = first_feasible(reqs, stand)
        try:
            alloc = allocate(reqs, stand)
        except AllocationError:
            assert expected is None
            continue
        assert [b.resource_id for b in alloc.bindings
                if b.delivery == "resource"] == expected
        feasible += 1
    assert feasible > 100


def _pigeonhole_stand(n):
    """n interchangeable resources, each wired to all n+1 pins."""
    resources = ResourceTable([
        ResourceDef(f"P{i}", "put_r", "r", Decimal(0), Decimal(1000))
        for i in range(1, n + 1)])
    pins = [f"p{j}" for j in range(n + 1)]
    matrix = ConnectionMatrix(
        pins, [res.id for res in resources],
        {(res.id, pin): Connector("mux", i, j + 1)
         for i, res in enumerate(resources, start=1)
         for j, pin in enumerate(pins)})
    reqs = [Requirement(pin, put_r(Decimal("5"))) for pin in pins]
    return StandModel(resources, matrix), reqs


@pytest.mark.parametrize("n", [12, 40])
def test_pigeonhole_fails_on_the_last_pin(n):
    stand, reqs = _pigeonhole_stand(n)
    with pytest.raises(AllocationError) as err:
        allocate(reqs, stand)
    assert err.value.pin == f"p{n}"
    assert [rid for rid, _ in err.value.candidates] == \
        [f"P{i}" for i in range(1, n + 1)]
    # The matching cut the root, where no binding holds a resource: each
    # resource is named with the pin the matching gave it, one pin each.
    prefix = "conflict: resource is needed for pin "
    assert all(reason.startswith(prefix)
               for _, reason in err.value.candidates)
    assert sorted(reason[len(prefix):]
                  for _, reason in err.value.candidates) == \
        sorted(f"p{j}" for j in range(n))


def _paired_groups_stand(n):
    """2n interchangeable resources where resources 2i-1 and 2i share mux
    group i, each wired to all n+1 pins: only the groups are overcommitted."""
    resources = ResourceTable([
        ResourceDef(f"R{r}", "put_r", "r", Decimal(0), Decimal(1000))
        for r in range(1, 2 * n + 1)])
    pins = [f"p{j}" for j in range(n + 1)]
    matrix = ConnectionMatrix(
        pins, [res.id for res in resources],
        {(f"R{r}", pin): Connector("mux", (r + 1) // 2,
                                   (r - 1) % 2 * (n + 1) + j + 1)
         for r in range(1, 2 * n + 1) for j, pin in enumerate(pins)})
    reqs = [Requirement(pin, put_r(Decimal("5"))) for pin in pins]
    return StandModel(resources, matrix), reqs


@pytest.mark.parametrize("n", [3, 8])
def test_overcommitted_groups_fail_at_once(n):
    # Each pin gets a resource of its own, but n groups cannot serve n+1
    # pins; without the group matching the search tries every assignment.
    stand, reqs = _paired_groups_stand(n)
    start = time.perf_counter()
    with pytest.raises(AllocationError) as err:
        allocate(reqs, stand)
    assert time.perf_counter() - start < 1.0
    assert err.value.pin == f"p{n}"
    # The deepest node is the chain of first candidates: p0..p{n-1} hold
    # R1, R3, ..., and with them every group.
    assert err.value.candidates == [
        (f"R{r}", f"conflict: resource holds a stimulus for pin p{r // 2}"
         if r % 2 else f"conflict: connector group Mx{r // 2} is engaged "
                       f"for pin p{r // 2 - 1}")
        for r in range(1, 2 * n + 1)]
    if n == 3:
        assert first_feasible(reqs, stand) is None


def _one_each_stand(n):
    """n pins, each wired to a resource of its own."""
    resources = ResourceTable([
        ResourceDef(f"R{j}", "put_r", "r", Decimal(0), Decimal(1000))
        for j in range(n)])
    pins = [f"p{j}" for j in range(n)]
    matrix = ConnectionMatrix(
        pins, [res.id for res in resources],
        {(f"R{j}", pin): Connector("mux", j, 1) for j, pin in enumerate(pins)})
    return StandModel(resources, matrix), pins


def _chain_stand(n):
    """n pins, pin j wired to R_j and R_(j+1) where that exists, with the
    rows in reverse: each pin's first candidate is its neighbour's own
    resource, so the last pin's matching moves every pin before it."""
    ids = [f"R{j}" for j in reversed(range(n))]
    resources = ResourceTable([
        ResourceDef(rid, "put_r", "r", Decimal(0), Decimal(1000))
        for rid in ids])
    pins = [f"p{j}" for j in range(n)]
    cells = {(f"R{j}", pin): Connector("mux", j, 1)
             for j, pin in enumerate(pins)}
    cells.update({(f"R{j + 1}", pin): Connector("mux", j + 1, 2)
                  for j, pin in enumerate(pins[:-1])})
    return StandModel(resources, ConnectionMatrix(pins, ids, cells)), pins


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("build", [_one_each_stand, _chain_stand])
def test_allocation_depth_needs_no_recursion(build):
    # The search and the matching hold their paths in lists: a block of
    # 400 stimuli allocates within 150 frames of the caller's stack.
    stand, pins = build(400)
    reqs = [Requirement(pin, put_r(Decimal("5"))) for pin in pins]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        start = time.perf_counter()
        alloc = allocate(reqs, stand)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert elapsed < 1.0
    assert [b.resource_id for b in alloc.bindings] == \
        [f"R{j}" for j in range(400)]


def test_each_node_repairs_the_matching_it_inherits():
    # Engaging a pin's one resource leaves every other pair of its parent's
    # matching in place, so a node costs no new matching: 1 100 stimuli
    # with a resource each take about as long as one matching.
    stand, pins = _one_each_stand(1100)
    reqs = [Requirement(pin, put_r(Decimal("5"))) for pin in pins]
    start = time.perf_counter()
    alloc = allocate(reqs, stand)
    assert time.perf_counter() - start < 0.25
    assert [b.resource_id for b in alloc.bindings] == \
        [f"R{j}" for j in range(1100)]


def test_load_and_allocate_leave_no_reference_cycles(demo_xml, demo_stand,
                                                     demo_env):
    # Garbage left to the cyclic collector stays alive until a collection
    # runs, which inflates peak memory; each call must free by refcount,
    # and a plan with its holds must be freed whether or not it was walked
    # to its end.
    class StallingDut(InteriorLightDut):
        def advance(self, dt):
            if dt == Decimal("0.5"):
                raise DutError("stalled")
            super().advance(dt)

        def __init__(self):
            super().__init__(InteriorLightConfig(ubatt=Decimal("12.0")))

    reduced = StandModel(ResourceTable(list(demo_stand.resources)[1:]),
                         ConnectionMatrix(demo_stand.matrix.pins,
                                          demo_stand.matrix.rows[1:],
                                          {k: v for k, v in
                                           demo_stand.matrix.cells.items()
                                           if k[0] != "Ress1"}))
    one = [Requirement("ds_fl", put_r(Decimal("1")))]
    three = [Requirement(pin, put_r(Decimal("1")))
             for pin in ("ds_fl", "ds_fr", "ds_rl")]
    gc.disable()
    try:
        gc.collect()
        load_script(demo_xml)
        assert gc.collect() == 0
        allocate(one, demo_stand)
        assert gc.collect() == 0
        with pytest.raises(AllocationError):
            allocate(three, demo_stand)
        assert gc.collect() == 0
        holds = Holds()
        allocate(one, demo_stand, holds)
        with pytest.raises(AllocationError):
            allocate(three, demo_stand, holds)
        del holds
        assert gc.collect() == 0
        report = execute(load_script(demo_xml), demo_stand, demo_env,
                         build_dut("interior_illumination", demo_env))
        report_to_json(report, io.StringIO())
        del report
        assert gc.collect() == 0
        # A plan driven to an abort of each kind, and one left half walked
        # when its DUT fails.
        script = load_script(demo_xml)
        kinds = [drive(script, plan(script, stand, env),
                       StallingDut()).abort.kind
                 for stand, env in ((demo_stand, {}), (reduced, demo_env),
                                    (demo_stand, demo_env))]
        assert kinds == ["environment", "allocation", "environment"]
        del script
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_search_writes_no_rejection_reason_on_success(monkeypatch):
    # A small stand shaped like the pool_churn workload: two wide and two
    # narrow put_r resources, each on a mux group of its own wired to
    # every stimulus pin, and a voltmeter. Every stimulus changes in every
    # block, so each block searches all four, with cuts and second
    # candidates. The search tests its candidates without text: only a
    # failed block asks ``_Search.failure`` for the rejection reasons.
    ids = ["W1", "W2", "N3", "N4"]
    resources = ResourceTable(
        [ResourceDef(rid, "put_r", "r", Decimal(0), Decimal(10 ** 6))
         for rid in ids[:2]]
        + [ResourceDef(rid, "put_r", "r", Decimal(0), Decimal(1000))
           for rid in ids[2:]]
        + [ResourceDef("U5", "get_u", "u", Decimal(-60), Decimal(60))])
    pins = ["p0", "p1", "p2", "p3"]
    cells = {(rid, pin): Connector("mux", g, j + 1)
             for g, rid in enumerate(ids, start=1)
             for j, pin in enumerate(pins)}
    cells["U5", "o0"] = Connector("switch", 5, 1)
    stand = StandModel(resources,
                       ConnectionMatrix([*pins, "o0"], [*ids, "U5"], cells))

    def unused(self, *args):
        raise AssertionError("a rejection reason was written")

    monkeypatch.setattr(_Search, "failure", unused)
    holds, seen = Holds(), []
    for values in [(5000, 10, 20000, 30), (40, 50000, 60, 70000),
                   (80000, 90, 100, 110000), (120, 130, 140, 150)]:
        reqs = [Requirement(pin, put_r(Decimal(v)))
                for pin, v in zip(pins, values)]
        reqs.append(Requirement("o0", get_u()))
        seen.append([(b.resource_id, str(b.connector))
                     for b in allocate(reqs, stand, holds).bindings])
    assert seen == [
        [("W1", "Mx1.1"), ("N3", "Mx3.2"), ("W2", "Mx2.3"), ("N4", "Mx4.4"),
         ("U5", "Sw5.1")],
        [("N3", "Mx3.1"), ("W1", "Mx1.2"), ("N4", "Mx4.3"), ("W2", "Mx2.4"),
         ("U5", "Sw5.1")],
        [("W1", "Mx1.1"), ("N3", "Mx3.2"), ("N4", "Mx4.3"), ("W2", "Mx2.4"),
         ("U5", "Sw5.1")],
        [("W1", "Mx1.1"), ("N3", "Mx3.2"), ("N4", "Mx4.3"), ("W2", "Mx2.4"),
         ("U5", "Sw5.1")]]


def _allocate_in_turn(stand, blocks):
    """Every block allocated in turn with one ``Holds``, past a failed
    block too: per block its bindings or its error text, and the holds."""
    holds, seen = Holds(), []
    for reqs in blocks:
        try:
            alloc = allocate(reqs, stand, holds)
        except AllocationError as exc:
            seen.append(str(exc))
        else:
            seen.append([(b.delivery, b.resource_id, str(b.connector), b.held)
                         for b in alloc.bindings])
        seen.append((sorted(holds.res.items()), sorted(holds.grp.items()),
                     sorted((pin, b.resource_id)
                            for pin, b in holds.by_pin.items())))
    return seen


def test_repaired_matchings_and_lazy_failures_change_nothing(monkeypatch):
    # The reference matches every node from scratch and builds each failed
    # node's error at that node, against the live holds: the bindings, the
    # held flags, the error texts and the holds must all be the same.
    rng = random.Random(20261019)
    cases = [random_block_sequence(rng) for _ in range(2000)]
    cuts = []
    repair = _Search._repair

    def counted(self, k, rid, conn):
        ok = repair(self, k, rid, conn)
        cuts.append(not ok)
        # No requirement owns two resources, and a repair that succeeds
        # places each of free[k:] once, on a usable resource the live holds
        # allow; a pair put back on a taken resource fails here.
        owners = list(self.matching.values())
        assert len(owners) == len(set(owners))
        if ok:
            assert sorted(owners) == sorted(self.free[k:])
            assert not self.pending
            for other, j in self.matching.items():
                conns = [c for res, c in self.usable[j] if res.id == other]
                assert conns and other not in self.holds.res
                assert conns[0].group_key not in self.holds.grp
        return ok

    monkeypatch.setattr(_Search, "_repair", counted)
    shipped = [_allocate_in_turn(stand, blocks) for stand, blocks in cases]

    failure = _Search.failure

    def from_scratch(self, k, rid, conn):
        owner = {}
        unmatched = self._match(self.free[k:], owner, self.holds)
        self.matching.clear()
        self.matching.update(owner)
        self.pending.clear()
        return unmatched is None

    def eager(self, k):
        if k >= self.deepest[0]:
            self.deepest = (k, self.holds)
            self.error = failure(self)

    monkeypatch.setattr(_Search, "_repair", from_scratch)
    monkeypatch.setattr(_Search, "_record", eager)
    monkeypatch.setattr(_Search, "failure", lambda self: self.error)
    reference = [_allocate_in_turn(stand, blocks) for stand, blocks in cases]
    assert shipped == reference
    # The cases exercise both outcomes and the repair's cuts.
    blocks = [entry for case in shipped for entry in case[::2]]
    failed = sum(isinstance(entry, str) for entry in blocks)
    assert 0.2 * len(blocks) < failed < 0.8 * len(blocks)
    assert sum(cuts) > 200
    # Every rejection is one of the six kinds a failed node can give, and
    # both conflicts with the search's engagements and matching occur.
    kinds = ("no method (supports ", "no connection", "range: ",
             "conflict: resource holds a stimulus for pin ",
             "conflict: connector group ",
             "conflict: resource is needed for pin ")
    reasons = [candidate.split(": ", 1)[1] for entry in blocks
               if isinstance(entry, str)
               for candidate in entry.split("; rejected candidates: ")[1]
               .split("; ")]
    assert all(reason.startswith(kinds) for reason in reasons)
    assert any(reason.startswith(kinds[3]) for reason in reasons)
    assert any(reason.startswith(kinds[5]) for reason in reasons)

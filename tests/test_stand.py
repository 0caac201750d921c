import dataclasses
import gc
import random
import time
from decimal import Decimal

import pytest

from comptest import (AllocationError, ConnectionMatrix, Connector,
                      MethodInvocation, Requirement, ResourceDef,
                      ResourceTable, StandModel, StandError, allocate,
                      build_dut, execute, load_script, parse_connector,
                      report_to_json, INF)
from comptest.stand import _Engagements

from oracles import (assert_allocation_sound, enumeration_feasible,
                     first_feasible, random_stand_case)


def put_r(value, **extra):
    return MethodInvocation("put_r", {"r": value, **extra})


def get_u(low="0", high="60"):
    return MethodInvocation("get_u", {"u_max": Decimal(high),
                                      "u_min": Decimal(low)})


def holds(alloc):
    """What the runner hands the next block: resource bindings by pin."""
    return {b.requirement.pin: b for b in alloc.bindings
            if b.delivery == "resource"}


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
    with pytest.raises(StandError, match="R9"):
        StandModel(resources, matrix)


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
    first = allocate([fl], demo_stand)
    held = holds(first)
    reqs = [Requirement("ds_fr", put_r(Decimal("1"))), fl]
    second = allocate(reqs, demo_stand, held)
    by_pin = {b.requirement.pin: b for b in second.bindings}
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
    first = allocate(same, demo_stand)
    pinned = allocate(same, demo_stand, holds(first))
    again = allocate(same, demo_stand, holds(pinned))
    fresh = allocate(reqs(), demo_stand, holds(pinned))

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
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.invocation = put_r(Decimal("7"))


def test_changed_stimulus_prefers_previous_resource(demo_stand):
    first = allocate([Requirement("ds_fl", put_r(Decimal("0")))], demo_stand)
    second = allocate([Requirement("ds_fl", put_r(Decimal("7")))], demo_stand,
                      holds(first))
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
    held = holds(allocate([p1], stand))
    assert held["p1"].resource_id == "A"
    reqs = [p1, Requirement("p2", put_r(Decimal("5")))]
    with pytest.raises(AllocationError):
        allocate(reqs, stand, held)
    assert not enumeration_feasible(reqs, stand, held)


def test_fresh_equal_requirement_may_move():
    # An equal requirement that is not the held one is searched, so it
    # moves to B and frees A for p2; neither binding is held.
    stand = _two_decades_one_pin_stand()
    held = holds(allocate([Requirement("p1", put_r(Decimal("5")))], stand))
    reqs = [Requirement("p1", put_r(Decimal("5"))),
            Requirement("p2", put_r(Decimal("5")))]
    alloc = allocate(reqs, stand, held)
    assert [(b.resource_id, b.held) for b in alloc.bindings] == [
        ("B", False), ("A", False)]
    assert first_feasible(reqs, stand, held) == ["B", "A"]
    assert_allocation_sound(reqs, stand, alloc, held)


def test_changed_value_allows_reshuffle():
    # Same shape, but the p1 stimulus changes value, so it may move to B
    # and free A for p2.
    stand = _two_decades_one_pin_stand()
    held = holds(allocate([Requirement("p1", put_r(Decimal("5")))], stand))
    reqs = [Requirement("p1", put_r(Decimal("9"))),
            Requirement("p2", put_r(Decimal("5")))]
    alloc = allocate(reqs, stand, held)
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
    # Each of the 12 checks could take either voltmeter; the last is out of
    # range on both. Retrying the earlier checks' choices would take 2^12
    # nodes, although checks constrain nothing but themselves.
    resources = ResourceTable([
        ResourceDef(f"V{r}", "get_u", "u", Decimal(-60), Decimal(60))
        for r in (1, 2)])
    pins = [f"p{j}" for j in range(13)]
    matrix = ConnectionMatrix(
        pins, ["V1", "V2"],
        {(f"V{r}", pin): Connector("switch", r, j + 1)
         for r in (1, 2) for j, pin in enumerate(pins)})
    reqs = [Requirement(pin, get_u()) for pin in pins[:-1]]
    reqs.append(Requirement(pins[-1], get_u(high="1000")))
    calls = []
    conflict = _Engagements.conflict

    def counting(self, *args):
        calls.append(args)
        return conflict(self, *args)

    monkeypatch.setattr(_Engagements, "conflict", counting)
    with pytest.raises(AllocationError) as err:
        allocate(reqs, StandModel(resources, matrix))
    assert str(err.value) == (
        "no resource satisfies (pin p12, method get_u, parameter u_max); "
        "rejected candidates: V1: range: u_max=1000 outside [-60, 60]; "
        "V2: range: u_max=1000 outside [-60, 60]")
    assert len(calls) <= 4 * len(reqs) * len(resources)


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


def test_load_and_allocate_leave_no_reference_cycles(demo_xml, demo_stand,
                                                     demo_env):
    # Garbage left to the cyclic collector stays alive until a collection
    # runs, which inflates peak memory; each call must free by refcount.
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
        report = execute(load_script(demo_xml), demo_stand, demo_env,
                         build_dut("interior_illumination", demo_env))
        report_to_json(report)
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()

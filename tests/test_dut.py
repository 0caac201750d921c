from decimal import Decimal

import pytest

from comptest import (DutError, INF, InteriorLightConfig, InteriorLightDut,
                      build_dut)

UB = Decimal("12.0")


def make_dut(**overrides):
    return InteriorLightDut(InteriorLightConfig(ubatt=UB, **overrides))


def test_lamp_on_at_night_with_open_door():
    dut = make_dut()
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("0"))
    dut.advance(Decimal("10"))
    assert dut.read_pin("int_ill_f") == UB
    assert dut.read_pin("int_ill_r") == UB


def test_lamp_off_during_day():
    dut = make_dut()
    dut.set_input("night", "0B")
    dut.set_input("ds_fl", Decimal("0"))
    dut.advance(Decimal("10"))
    assert dut.read_pin("int_ill_f") == Decimal("0")
    # A number is a bit payload too: nonzero is night.
    dut.set_input("night", Decimal("1"))
    assert dut.read_pin("int_ill_f") == UB
    dut.set_input("night", Decimal("0"))
    assert dut.read_pin("int_ill_f") == Decimal("0")


def test_lamp_times_out_after_300s():
    dut = make_dut()
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("0"))
    dut.advance(Decimal("305"))
    assert dut.read_pin("int_ill_f") == Decimal("0")


def test_timeout_boundary_is_exclusive():
    dut = make_dut()
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("0"))
    dut.advance(Decimal("299.999"))
    assert dut.read_pin("int_ill_f") == UB
    dut.advance(Decimal("0.001"))  # elapsed == timeout
    assert dut.read_pin("int_ill_f") == Decimal("0")


def test_closing_all_doors_clears_the_timer():
    dut = make_dut()
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("0"))
    dut.advance(Decimal("200"))
    dut.set_input("ds_fl", INF)        # close: timer clears, lamp off
    assert dut.read_pin("int_ill_f") == Decimal("0")
    dut.advance(Decimal("500"))
    dut.set_input("ds_fl", Decimal("0"))  # reopen: fresh timer
    dut.advance(Decimal("10"))
    assert dut.read_pin("int_ill_f") == UB


def test_second_door_retriggers_the_timer_by_default():
    dut = make_dut()
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("0"))
    dut.advance(Decimal("200"))
    dut.set_input("ds_fr", Decimal("0"))  # restarts the 300 s window
    dut.advance(Decimal("200"))
    assert dut.read_pin("int_ill_f") == UB
    dut.advance(Decimal("150"))
    assert dut.read_pin("int_ill_f") == Decimal("0")


def test_door_threshold():
    dut = make_dut()
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("99.9"))
    assert dut.lamp_on
    dut.set_input("ds_fl", Decimal("100"))  # at threshold: closed
    assert not dut.lamp_on
    dut.set_input("ds_fl", INF)
    assert not dut.lamp_on


def test_ignition_is_recorded_but_inert():
    dut = make_dut()
    dut.set_input("ign_st", "0001B")
    dut.set_input("night", "1B")
    dut.set_input("ds_fl", Decimal("0"))
    assert dut.lamp_on
    assert dut.ignition == "0001B"


def test_bad_inputs_raise():
    dut = make_dut()
    with pytest.raises(DutError, match="unknown input"):
        dut.set_input("warp_core", Decimal("1"))
    with pytest.raises(DutError, match="resistance"):
        dut.set_input("ds_fl", "0001B")
    with pytest.raises(DutError, match="expected a bit payload"):
        dut.set_input("night", INF)
    with pytest.raises(DutError, match="unknown output pin"):
        dut.read_pin("ds_fl")
    with pytest.raises(DutError, match="advances"):
        dut.advance(Decimal("-1"))


def test_determinism():
    def run():
        dut = make_dut()
        out = []
        dut.set_input("night", "1B")
        for _ in range(5):
            dut.set_input("ds_fl", Decimal("0"))
            dut.advance(Decimal("100"))
            out.append(dut.read_pin("int_ill_f"))
            dut.set_input("ds_fl", INF)
            dut.advance(Decimal("50"))
            out.append(dut.read_pin("int_ill_r"))
        return out

    assert run() == run()


def test_registry_builds_interior_light_dut():
    dut = build_dut("interior_illumination", {"ubatt": Decimal("9")})
    dut.set_input("night", "1B")
    dut.set_input("ds_fr", Decimal("0"))
    assert dut.read_pin("int_ill_f") == Decimal("9")
    with pytest.raises(DutError, match="unknown dut"):
        build_dut("flux_capacitor", {})
    with pytest.raises(DutError, match="ubatt"):
        build_dut("interior_illumination", {})

"""Device-under-test models and the built-in registry.

The executor talks to a DUT through three calls: ``set_input`` (a
resistance on a pin, or a bus payload on a logical input), ``advance``
(virtual time) and ``read_pin`` (output voltage). Models must be
deterministic: the same input sequence always reads back the same values.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Callable, Mapping, NamedTuple, Protocol

from .errors import DutError
from .expr import ARITHMETIC
from .sheets import INF


class DutModel(Protocol):
    def set_input(self, name: str, value, aux: Mapping | None = None) -> None: ...

    def advance(self, dt: Decimal) -> None: ...

    def read_pin(self, pin: str) -> Decimal: ...


def _bit_value(value) -> bool:
    if isinstance(value, str) and value.endswith("B"):
        return int(value[:-1], 2) != 0
    if isinstance(value, Decimal):
        return value != 0
    raise DutError(f"expected a bit payload, got {value!r}")


class InteriorLightConfig(NamedTuple):
    """Tuning knobs of the reference interior-illumination controller."""

    ubatt: Decimal
    timeout_s: Decimal = Decimal("300")


class InteriorLightDut:
    """Reference model: night-gated interior lamp with a courtesy timeout.

    Door-switch inputs are resistances: below the threshold the contact is
    closed and the door counts as open; at or above the threshold, or with
    an open circuit, the door is closed. While NIGHT is set and at least
    one door is open, both lamp pins read the supply voltage until the
    timeout since the most recent door-opening has elapsed: every
    closed-to-open transition restarts the timer. The ignition input is
    recorded but plays no part in the lamp logic.
    """

    DOOR_PINS = ("ds_fl", "ds_fr", "ds_rl", "ds_rr")
    LAMP_PINS = ("int_ill_f", "int_ill_r")
    DOOR_THRESHOLD_OHM = Decimal("100")

    def __init__(self, config: InteriorLightConfig):
        self.config = config
        self.now = Decimal("0")
        self.doors = {pin: False for pin in self.DOOR_PINS}
        self.night = False
        self.ignition = None
        self._open_since: Decimal | None = None

    def set_input(self, name: str, value, aux: Mapping | None = None) -> None:
        name = name.lower()
        if name in self.doors:
            if value is INF:
                is_open = False
            elif isinstance(value, Decimal):
                is_open = value < self.DOOR_THRESHOLD_OHM
            else:
                raise DutError(f"door input {name} expects a resistance, "
                               f"got {value!r}")
            was_open = self.doors[name]
            self.doors[name] = is_open
            if is_open and not was_open:
                self._open_since = self.now
            if not any(self.doors.values()):
                self._open_since = None
        elif name == "night":
            self.night = _bit_value(value)
        elif name == "ign_st":
            self.ignition = value
        else:
            raise DutError(f"unknown input '{name}'")

    def advance(self, dt: Decimal) -> None:
        if dt < 0:
            raise DutError("time only advances")
        self.now = ARITHMETIC.add(self.now, dt)

    @property
    def lamp_on(self) -> bool:
        return (self.night
                and any(self.doors.values())
                and self._open_since is not None
                and ARITHMETIC.subtract(self.now, self._open_since)
                < self.config.timeout_s)

    def read_pin(self, pin: str) -> Decimal:
        pin = pin.lower()
        if pin not in self.LAMP_PINS:
            raise DutError(f"unknown output pin '{pin}'")
        return self.config.ubatt if self.lamp_on else Decimal("0")


def _interior_from_env(env: Mapping[str, Decimal]) -> InteriorLightDut:
    if "ubatt" not in env:
        raise DutError("dut 'interior_illumination' requires the environment "
                       "variable 'ubatt'")
    return InteriorLightDut(InteriorLightConfig(ubatt=Decimal(env["ubatt"])))


#: name -> factory(env). The CLI selects DUT models from here.
DUT_REGISTRY: dict[str, Callable[[Mapping[str, Decimal]], DutModel]] = {
    "interior_illumination": _interior_from_env,
}


def dut_fault(exc: Exception) -> str:
    """The message for whatever a DUT plugin, which is outside code, raises
    while it is built, driven or read; anything but a DutError is named by
    its type."""
    if isinstance(exc, DutError):
        return str(exc)
    return f"dut model raised {type(exc).__name__}: {exc}"


def build_dut(name: str, env: Mapping[str, Decimal]) -> DutModel:
    if name not in DUT_REGISTRY:
        known = ", ".join(sorted(DUT_REGISTRY))
        raise DutError(f"unknown dut '{name}' (available: {known})")
    try:
        return DUT_REGISTRY[name](env)
    except DutError:
        raise
    except Exception as exc:  # a faulty DUT plugin, see dut_fault
        raise DutError(dut_fault(exc)) from exc

"""Echo DUT for the benchmark workloads, registered as a comptest plugin.

Inputs are resistance pins named ``i<g>_<k>`` (group ``g``); outputs are
voltage pins ``o<g>``. Output ``o<g>`` reads ``ubatt`` when an odd number
of group ``g``'s inputs carry a resistance below ``LOW_OHM`` and 0 V
otherwise; an open circuit (INF) counts as high. The readings depend on
the inputs alone, never on time, so the generator knows every verdict.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Mapping

NAME = "bench_echo"
LOW_OHM = Decimal("1000")
_ZERO = Decimal("0")


class EchoDut:
    def __init__(self, ubatt: Decimal):
        self.ubatt = ubatt
        self.low: dict[str, set[str]] = {}  # group -> input pins now low

    def set_input(self, name: str, value, aux: Mapping | None = None) -> None:
        group, _, _ = name[1:].partition("_")
        lows = self.low.setdefault(group, set())
        if isinstance(value, Decimal) and value < LOW_OHM:
            lows.add(name)
        else:
            lows.discard(name)

    def advance(self, dt: Decimal) -> None:
        pass

    def read_pin(self, pin: str) -> Decimal:
        return self.ubatt if len(self.low.get(pin[1:], ())) % 2 else _ZERO


def build(env: Mapping[str, Decimal]) -> EchoDut:
    from comptest.errors import DutError
    if "ubatt" not in env:
        raise DutError(f"dut '{NAME}' requires the environment variable "
                       f"'ubatt'")
    return EchoDut(Decimal(env["ubatt"]))


def register(factory=build) -> None:
    """Make the echo DUT selectable with ``comptest run --dut bench_echo``."""
    from comptest.dut import DUT_REGISTRY
    DUT_REGISTRY[NAME] = factory

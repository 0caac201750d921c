#!/usr/bin/env python3
"""Sweep the lamp-timeout parameter and show which test steps fail.

The example test holds a door open for 280.5 s (checked at step 7) and
305.5 s (step 8), so the sweep localizes the timeout between those two
elapsed times: timeouts below 280.5 fail step 7, timeouts in between pass
everything, timeouts above 305.5 fail step 8's lamp-off expectation.
"""

import argparse
import sys
from decimal import Decimal
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from comptest import (InteriorLightConfig, InteriorLightDut, StandModel,
                      compile, emit_xml, execute, load_script,
                      parse_connection_sheet, parse_resource_sheet,
                      parse_signal_sheet, parse_status_sheet, parse_test_sheet)

DATA = Path(__file__).resolve().parent.parent / "data" / "interior_light"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--start", type=int, default=240)
    ap.add_argument("--stop", type=int, default=330)
    ap.add_argument("--step", type=int, default=10)
    args = ap.parse_args()

    signals = parse_signal_sheet((DATA / "signals.csv").read_text("utf-8"))
    statuses = parse_status_sheet((DATA / "statuses.csv").read_text("utf-8"))
    test = parse_test_sheet(
        (DATA / "test_interior_light.csv").read_text("utf-8"),
        name="interior_light")
    script = load_script(emit_xml(compile(signals, statuses, test,
                                          dut="interior_light_ecu")))
    stand = StandModel(
        parse_resource_sheet((DATA / "resources.csv").read_text("utf-8")),
        parse_connection_sheet((DATA / "connections.csv").read_text("utf-8")))
    env = {"ubatt": Decimal("12.0")}

    print(f"{'timeout_s':>10}  verdict  failing steps")
    for timeout in range(args.start, args.stop + 1, args.step):
        dut = InteriorLightDut(InteriorLightConfig(
            ubatt=Decimal("12.0"), timeout_s=Decimal(timeout)))
        report = execute(script, stand, env, dut)
        failing = [s.index for s in report.steps if not s.passed]
        verdict = "PASS" if report.overall else "FAIL"
        print(f"{timeout:>10}  {verdict:7}  {failing if failing else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

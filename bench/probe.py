"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/probe.py <workload input directory>

Imports comptest from the checkout's ``src``, parses the resource and
connection sheets, builds the ``StandModel``, reads the stand environment
and builds the echo DUT. It then prints ``time.monotonic_ns()``: the parent
subtracts the moment it started this process, which gives the set-up time
a user pays before the first step can run.
"""

import sys
import time
from decimal import Decimal
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import comptest  # noqa: E402
from comptest.dut import build_dut  # noqa: E402

import echo_dut  # noqa: E402


def main(workdir: Path) -> int:
    def read(name: str) -> str:
        return (workdir / name).read_text(encoding="utf-8")

    stand = comptest.StandModel(
        comptest.parse_resource_sheet(read("resources.csv")),
        comptest.parse_connection_sheet(read("connections.csv")))
    env = {}
    for line in read("stand.env").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            env[key.strip()] = Decimal(value.strip())
    echo_dut.register()
    build_dut(echo_dut.NAME, env)
    ready = time.monotonic_ns()
    print(ready, len(stand.resources))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))

"""Time one workload's set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py MODULE [LENGTH ...]

Set-up is importing MODULE (``tftkit`` or ``tftkit.cli``), deriving the
default field, and building a reusable plan for each LENGTH.  Calibration
blocks timed just before and after it give the factor that scales it to
the reference speed.
"""

import json
import sys
import time
from pathlib import Path

from calibration import Calibration

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    module, lengths = sys.argv[1], [int(x) for x in sys.argv[2:]]
    calibration = Calibration()
    calibration.run()  # the first block runs on an unwarmed interpreter
    block = calibration.run()
    t0 = time.perf_counter()
    __import__(module)
    t1 = time.perf_counter()
    from tftkit import DEFAULT_MODULUS, PrimeField, make_plan

    field = PrimeField.from_modulus(DEFAULT_MODULUS)
    plans = [make_plan(field, ell) for ell in lengths]
    t2 = time.perf_counter()
    calibration.run()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "plans": len(plans),
                      "scale": calibration.scale(block)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

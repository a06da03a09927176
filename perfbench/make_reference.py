"""Regenerate the reference values the sensitivity and cold_cli checks use.

    python3 perfbench/make_reference.py

Records, for the checked-out commit, every sweep point's feasibility, tour
count and KPI totals, and the numbers each cold_cli command prints.  Run it
only at a commit whose outputs are trusted: the checks then hold later
commits to these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from citydist.scenario import load_scenario  # noqa: E402
from citydist.sweep import sweep_parameter  # noqa: E402

from workloads import (  # noqa: E402
    BORDEAUX,
    REFERENCE_DIR,
    cli_commands,
    output_numbers,
    run_cli,
    sweep_signature,
    sweep_specs,
)


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    sweeps = {}
    for label, spec in sweep_specs(load_scenario(str(BORDEAUX))).items():
        report = sweep_parameter(spec)
        sweeps[label] = {"values": [r.value for r in report.rows],
                         "points": sweep_signature(report)}
    with open(REFERENCE_DIR / "sensitivity.json", "w", encoding="utf-8") as fh:
        json.dump(sweeps, fh, separators=(",", ":"))
    commands = {}
    for name, argv in cli_commands().items():
        code, out, _ = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{name} exited with {code}")
        commands[name] = output_numbers(name, out)
    with open(REFERENCE_DIR / "cold_cli.json", "w", encoding="utf-8") as fh:
        json.dump(commands, fh, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Regenerate the full paper-vs-ours data behind EXPERIMENTS.md.

Runs every table/figure regeneration in repro.bench and prints the
comparison blocks (the same output as ``python -m repro report``).
Use after changing calibration or runtime code to refresh the numbers
recorded in EXPERIMENTS.md:

    python scripts/make_experiments_report.py > report.txt
"""

from __future__ import annotations

from repro.bench import print_experiments_report

if __name__ == "__main__":
    print_experiments_report()

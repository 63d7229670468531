"""Benchmark harness: paper reference data, regeneration, reporting."""

from . import paperdata
from .accuracy import AccuracyCase, AccuracyReport, model_accuracy
from .experiments import (
    figure1,
    figure4,
    figure7,
    figure8,
    PATTERN_GRID,
    print_experiments_report,
    section341,
    section51,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from .reporting import Comparison, all_within, max_ratio_error, render

__all__ = [
    "AccuracyCase",
    "AccuracyReport",
    "all_within",
    "Comparison",
    "figure1",
    "figure4",
    "figure7",
    "figure8",
    "max_ratio_error",
    "model_accuracy",
    "paperdata",
    "PATTERN_GRID",
    "print_experiments_report",
    "render",
    "section341",
    "section51",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]

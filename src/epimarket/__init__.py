"""Deterministic contagion-market simulator and verification harness."""
from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    build_timeline,
    check_propositions,
    parameter_sweep,
    refine_peak,
    summarize_sweep,
)
from .epidemic import (
    EpidemicParams,
    epidemic_pass,
    infection_peak,
    steady_state_recovered,
)
from .market import (
    SupplyCurve,
    cohort_holdings_profile,
    simulate_depression,
    simulate_myopic,
)
from .numerics import Grid
from .output import write_sweep_csv
from .rational import re_price_path, simulate_re_given_t1, solve_plateau

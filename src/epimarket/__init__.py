"""Deterministic contagion-market simulator and verification harness."""
from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    ClaimResult,
    EventTimeline,
    PropositionReport,
    SweepResult,
    build_timeline,
    check_propositions,
    default_sweep_axes,
    parameter_sweep,
    refine_peak,
    summarize_sweep,
)
from .config import ScenarioConfig, parse_config, serialize_config, with_overrides
from .epidemic import (
    EpidemicParams,
    EpidemicState,
    EpidemicTrajectory,
    InfectionPeak,
    epidemic_pass,
    first_integral_I,
    first_integral_R,
    infection_peak,
    simulate_epidemic,
    sir_derivatives,
    steady_state_recovered,
)
from .errors import (
    BoundaryExtremumError,
    BracketError,
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    GridTooCoarseError,
    IntegrationError,
    NoPlateauError,
    PriceFloorError,
    RangeError,
    SimulationError,
)
from .market import (
    MarketState,
    MarketTrajectory,
    SupplyCurve,
    clearing_price,
    cohort_holdings_profile,
    cohort_holdings_quadrature,
    excess_supply,
    simulate_depression,
    simulate_myopic,
)
from .numerics import (
    Bracket,
    Grid,
    find_root_bracketed,
    integrate_fixed_step,
    invert_monotone,
    parabolic_vertex,
    rk4_step,
)
from .output import (
    RunReport,
    read_timeseries_csv,
    write_plot_dat,
    write_report,
    write_sweep_csv,
    write_timeline_json,
    write_timeseries,
)
from .rational import (
    PlateauDiagnosis,
    PlateauSolution,
    re_price_path,
    simulate_re_given_t1,
    solve_plateau,
)
from .verify import CheckResult, VerificationReport, run_verification

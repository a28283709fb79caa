"""Game-based transmission power control for multi-hop wireless sensor networks."""

from .channel import (
    INTERFERENCE_MODES,
    NoiseFloor,
    PathLossModel,
    Position,
    ber,
    build_gain_matrix,
    dbm_to_mw,
    gain,
    link_prr,
    prr,
    prr_matrix,
    sinr,
    sinr_for_prr,
    strategy_to_dbm,
    strategy_to_mw,
)
from .game import (
    EquilibriumResult,
    GameParams,
    StrategyProfile,
    best_response,
    exact_potential_residual,
    potential,
    solve,
    utility,
    verify_equilibrium,
)
from .topology import (
    INFEASIBLE,
    SmallWorldParams,
    Topology,
    adjacency,
    algebraic_connectivity,
    degree_at_power,
    is_connected_bfs,
    is_connected_spectral,
    load_topology,
    min_power_for_degree,
    random_topology,
    rgg_degree_threshold,
    save_topology,
    smallworld_threshold,
    topology_from_json_dict,
    topology_to_json_dict,
)
from .quantize import (
    DiscreteLevelSet,
    RegisterMap,
    discretize_profile,
    solve_discrete,
    to_register,
)
from .packetsim import (
    Metrics,
    TrafficConfig,
    Transmission,
    TransmissionLog,
    best_prr_receivers,
    build_metrics,
    delivery_ratio,
    empirical_prr,
    link_cdf,
    relative_energy,
    round_robin_receivers,
    simulate,
)
from .experiment import (
    MODES,
    ModeSection,
    ScenarioConfig,
    SimulationReport,
    compare,
    emit,
    run_scenario,
    simulation_default,
    testbed_default,
    validate_config,
)

__version__ = "0.1.0"

"""Subframework-based rigidity analysis and maintenance for multi-robot networks."""

from .graphs import (
    UNREACHABLE,
    GeodesicTable,
    Graph,
    GraphDisconnectedError,
    diameter,
    disk_proximity_graph,
    geodesics,
    is_biconnected,
    is_connected,
    laplacian_matrix,
)
from .rigidity import (
    REL_TOL,
    CoincidentNodesError,
    Framework,
    FrameworkTooSmallError,
    RankMismatchError,
    RigidityReport,
    diameter_bound_certificate,
    diameter_eigenvalue_bound,
    is_infinitesimally_rigid,
    rigid_body_dim,
    rigidity_matrix,
    rigidity_report,
    rigidity_spectrum,
    symmetric_rigidity_matrix,
)
from .subframeworks import (
    communication_load,
    extent_assignment,
    extract_subframework,
    inclusion_group,
    verify_extents,
)
from .control import (
    ControlParams,
    ControlState,
    NonFiniteCommandError,
    RigidityLostError,
    build_control_state,
    collision_gradient_all,
    collision_potential,
    guarded_refresh,
    load_gradient_all,
    load_potential,
    refresh_topology,
    rigidity_gradient_all,
    rigidity_potential,
    total_potential,
    velocity_field,
)
from .localization import (
    CoincidentEstimatesError,
    Filters,
    LocalizationError,
    NonFiniteRangeError,
    SingularInnovationError,
    congruence_error,
    filter_update,
    make_filters,
    run_static_filter,
)
from .simnet import (
    Message,
    ProtocolViolation,
    RoundLog,
    World,
    WorldConfig,
    broadcast_estimates,
    decentralized_velocity,
    make_world,
    run_exchange_phase,
    run_message_engine,
    run_simulation,
    step_simulation,
    tick_velocity,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    framework_from_json,
    framework_to_json,
    generate_scenario,
    network_record,
    reference_control_config,
    run_control_experiment,
    run_ensemble_experiment,
)

__version__ = "0.1.0"

"""bilip: explicit bi-Lipschitz homeomorphisms and quasi-isometries of
R^n, with numerical certification of their quantitative bounds.

The package builds a small algebra of exactly evaluable self-maps of
R^n (radial extensions of sphere maps, disk-replication embeddings,
products, spiral maps, piecewise-linear homeomorphisms) and certifies,
at desk scale, the constants each construction promises: sampled
bi-Lipschitz lower bounds against claimed upper bounds, quasi-isometry
parameters, covering radii, and drift-to-identity witness sequences.
"""

# set before the submodules load: verify reads it as TOOL_VERSION, and
# pyproject.toml takes the package version from here
__version__ = "0.1.0"

from .core import (
    frobenius_norm,
    operator_norm,
    rotation_matrix,
    sphere_geodesic,
)
from .estimators import (
    AnnulusRegion,
    BilipEstimate,
    BoxRegion,
    DriftReport,
    SamplerConfig,
    annulus,
    ball,
    bilip_lower_bound,
    box,
    c_density,
    circle_cloud,
    drift_profile,
    ellipse_cloud,
    geodesic_estimate,
    metric_equivalence_ratio,
    neighbor_graph,
    qi_embedding_check,
    refutes,
    replication_drift_witnesses,
    sphere_bilip_lower_bound,
    sphere_cloud,
    spiral_drift_witnesses,
)
from .mapformat import load_map, map_to_text, parse_map, save_map
from .maps import (
    ConstantRotationProfile,
    CutoffRotationProfile,
    DiskMap,
    LogSpiralProfile,
    MapExpr,
    SphereMap,
    SpiralProfile,
    affine,
    compose,
    compose_disk_maps,
    compose_sphere_maps,
    disk_replication,
    displacement,
    displacement_points,
    evaluate,
    evaluate_inverse,
    evaluate_inverse_points,
    evaluate_points,
    identity,
    inverse,
    jacobian_fd,
    locate_replication_disk,
    make_latitude_sphere_map,
    make_twist_disk_map,
    pl_disk_map,
    pl_homeomorphism,
    product_map,
    radial_extension,
    spiral_map,
    translated_replication,
)
from .pl import (
    PLMap,
    Triangulation,
    kuhn_triangulation,
    pl_bilip_constant,
    pl_differential_norm,
    pl_eval,
    pl_eval_inverse,
    pl_twist_example,
    pl_validate,
)
from .profiles import CubicProfile, bump_profile, twist_angle_profile
from .verify import (
    Report,
    default_suite,
    verify_homomorphism,
    verify_matrix_norms,
    verify_metric_equivalence,
    verify_product_qi,
    verify_radial_bound,
    verify_replication_constant,
    verify_replication_drift,
    verify_spiral_bound,
)

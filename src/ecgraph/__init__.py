"""Edge-colored graph toolkit: rainbow subgraph search, color-degree
bounds, matching/cover partitions, and a verification harness."""

from .core import (
    ColorDegreeProfile,
    ColoredGraph,
    EcgError,
    color_degree,
    color_profile,
    load_ecg,
    max_mono_degree,
    min_color_degree,
    mono_degree,
    normalize_colors,
    relabel_colors,
    save_ecg,
)
from .generators import (
    GeneratorSpec,
    gen_complete_multipartite,
    gen_example1,
    gen_proper_complete,
    gen_random_colored,
    generate,
)
from .rainbow import (
    Certificate,
    RainbowEdgeGraph,
    RainbowTriangleIndex,
    build_index,
    find_book,
    find_disjoint_rainbow_triangles,
    find_fan,
    find_pc_spanning_fan,
    has_rainbow_triangle,
    max_book,
    max_disjoint_rainbow_triangles,
    max_fan,
    rainbow_edge_graph,
)
from .reduction import edge_minimal_reduce, is_edge_minimal
from .bounds import (
    ClassBound,
    MonoBalanceDiagnostics,
    TriangleBoundReport,
    counting_lower_bound,
    mono_balance_diagnostics,
    restriction_count,
    triangle_bound_report,
)
from .matching import (
    GallaiPartition,
    PartitionDiagnostics,
    connected_components,
    cover_number,
    gallai_partition,
    is_connected,
    matching_number,
    max_matching,
    min_vertex_cover,
    verify_partition_lemmas,
)
from .harness import (
    CLAIMS,
    AdmissionError,
    Claim,
    Failure,
    Report,
    TheoremSpec,
    UnsatisfiableHypothesisError,
    check_example1_sharpness,
    emit_report,
    register_claim,
    search_hly_counterexample,
    verify,
)

__version__ = "0.1.0"

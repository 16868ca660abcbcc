"""Edge-colored graph toolkit: rainbow subgraph search, color-degree
bounds, matching/cover partitions, and a verification harness."""

from .core import (
    ColorDegreeProfile,
    ColoredGraph,
    EcgError,
    color_profile,
    load_ecg,
    max_mono_degree,
    min_color_degree,
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
    RainbowTriangleIndex,
    build_index,
    find_book,
    find_disjoint_rainbow_triangles,
    find_fan,
    find_pc_spanning_fan,
    has_rainbow_triangle,
    max_book,
    max_fan,
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
    gallai_partition,
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
    emit_report,
    register_claim,
    search_hly_counterexample,
    verify,
)

__version__ = "0.1.0"

"""upblab: exact arithmetic for multiqubit orthogonal and unextendible
product bases and the PPT states built from them.

All core decisions (orthogonality, rank, positivity, extendibility) are
made over the complex rationals with no tolerances.  Floating point only
appears in the range scanner's flagged heuristic branch and in the float
views (``ExactMatrix.to_numpy``) that tests use as cross-checks.
"""

from .blocks import BipartitePair, BlockSpec, opb_from_blocks, opb_to_blocks
from .catalog import (
    ThetaCatalog,
    fixture,
    fixture_names,
    load,
    min_upb_size,
    save,
    size_status,
)
from .entangle import RangeScanResult, range_product_scan
from .linalg import (
    ExactMatrix,
    PsdCertificate,
    matrix_rank,
    psd_certificate,
    range_quadratic_form,
)
from .product import (
    ExtendDecision,
    ProductSet,
    ProductVector,
    Structure,
    build_product_set,
    extend_or_certify,
    is_proper,
    shifts_upb,
    standard_opb,
    tensor_upb_opb,
    verify_ops,
)
from .qubits import LocalState, local_equal_up_to_phase, local_perp
from .scalars import ComplexRational
from .search import ScanReport, Template, realize_template, sample_template, scan
from .states import (
    BirankRecord,
    DensityOp,
    birank,
    complement_projector,
    density_from_matrix,
    partial_trace,
    partial_transpose,
    ppt_report,
    pure_density,
    subtract_product,
)

__version__ = "0.1.0"

# Read by the benchmark harness (perfbench/run.py) into its environment block.
kernel_backend = "python"

"""qcverify: exact degreewise checks for sheaves on the plane with double origin.

The package verifies, by finite exact linear algebra, two classical
pathologies of the non-semiseparated scheme obtained by gluing two affine
planes along the doubled punctured plane: the failure of flatness for
quotient presentations of the direct-image ideal sheaf, and the failure of
right exactness after a graded-dual (Matlis-style) internal hom.

Layers, from the bottom up:
  exact_linalg       sparse exact matrices over Q or F_p
  graded_modules     graded rings, finite presentations, degreewise modules
  localization_cech  capped localizations and Cech cohomology on open covers
  glued_scheme       the doubled plane, its sheaves, obstruction certificates
  matlis             graded duals, injective hulls, the (+)-functor pipeline
  verify_cli         scenario files, built-in scenarios, reports, the qcv CLI
"""

__version__ = "0.1.0"

from .exact_linalg import FieldSpec, Mat, image_quotient, kernel_basis, rref, solve
from .graded_modules import (
    DegreewiseModule,
    FPGradedModule,
    GradedModuleMap,
    GradedPiece,
    HomogPoly,
    NonHomogeneousError,
    PolyRing,
    RelationNotKilled,
    cokernel_dw,
    direct_sum,
    free_module,
    hom_piece,
    image_dw,
    kernel_dw,
    map_from_gen_images,
    tensor_piece,
    verify_action_commutation,
    verify_naturality,
)
from .localization_cech import (
    CapExhausted,
    CapPolicy,
    OpenSubset,
    SectionsModule,
    cech_complex,
    h1_window,
    localize_piece,
    restriction_to_sections,
    section_mult,
    sections_induced_map,
    sections_window,
)
from .glued_scheme import (
    BufferTooSmall,
    DefectTable,
    DoubleGluedScheme,
    ExactnessReport,
    GluingMismatch,
    NonaffineWitness,
    ObstructionCertificate,
    QcohSheafOnX,
    SheafMap,
    direct_image_from_U,
    double_origin_plane,
    exactness_tables,
    flat_quotient_obstruction,
    flat_sections_defect,
    sequence_report,
    sheaf_sections,
    witness_nonaffine,
)
from .matlis import (
    BidualReport,
    DualizedModule,
    bidual_pipeline,
    injective_hull,
    matlis_dual,
    matlis_dual_map,
    plus_functor,
    plus_functor_map,
)
from .verify_cli import (
    BUILTIN_SCENARIOS,
    Report,
    Scenario,
    emit_report,
    parse_scenario,
    run_scenario,
)

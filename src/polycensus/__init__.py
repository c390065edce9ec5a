"""Census and classification of small polyhedral graphs.

A polyhedral graph is a simple, planar, 3-connected graph.  This
package enumerates them within order/size bounds, computes complements
and duals, and mechanically verifies that exactly three of them have a
polyhedral complement: all three self-complementary (8, 14) graphs of
degree sequence 44443333, exactly one of which is not self-dual.
"""

from types import ModuleType as _ModuleType

from .catalog import (
    CatalogEntry,
    build_catalog,
    catalog_to_json,
    dot_document,
    graph6_lines,
    order_census,
)
from .classify import (
    CandidateRow,
    CaseResult,
    ClassificationError,
    ClassificationReport,
    PruneTrace,
    candidate_degree_rows,
    equal_order_size_system,
    prune_order,
    solve_question,
    validate_report,
    verify_planar_complement_bound,
    verify_remark_8_14,
)
from .connectivity import is_3_connected
from .duality import NotPolyhedralError, dual, is_polyhedral, is_self_dual
from .enumeration import (
    MAX_ENUM_ORDER,
    enumerate_by_size,
    enumerate_polyhedra,
    filter_by_degree_sequence,
    order_bounds,
    triangulations,
)
from .graph6 import Graph6Error, decode, encode
from .graphs import (
    MAX_VERTICES,
    DegreeSequence,
    Graph,
    complete,
    complete_multipartite,
)
from .isomorphism import (
    CanonicalForm,
    are_isomorphic,
    canonical_form,
    is_self_complementary,
)
from .planarity import NonPlanarGraphError, embed, is_planar

__version__ = "0.1.0"

# every public name bound above, none of the submodules that importing
# them binds as attributes of the package
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

"""Exact branched-cover counts and the intersection numbers behind them.

Everything is rational arithmetic: covering-surface counts come from four
independent engines (a direct count of transitive factorizations, the
cut-and-join recursion on cycle types for connected and for disconnected
covers, and character sums), linear Hodge integrals are
extracted from those counts by exact polynomial interpolation, and a symbolic
rank-one localization toolkit re-derives the bridge identity term by term.  Every number is produced by at
least two independent routes and the routes must agree exactly.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    HurwitzlabError,
    MissingBracketError,
    ResourceLimitError,
)
from .partitions import Partition, aut_size, class_size, kappa, partitions_of, z
from .symgroup import CharacterTable, build_table, character, dim_irrep
from .hurwitz import (
    HurwitzSeries,
    connected_dfs,
    connected_dp,
    connected_via_transform,
    disconnected_burnside,
    disconnected_dp,
    phi_series,
)
from .hodge import (
    HodgeBracket,
    HodgeTable,
    elsv_evaluate,
    elsv_inversion,
    hodge_export,
    hodge_import,
    invert_into,
    string_equation_check,
)
from .eqcoh import (
    EquivariantPolyRing,
    FixedLocusData,
    HodgeClassPoly,
    Laurent,
    WeightMultiset,
    ab_integrate,
    elsv_via_localization,
    fixed_locus_data,
    fixed_point_weights_cover,
    format_hodge_class,
    grr_localization_check,
    inverse_euler_normal,
    parse_hodge_class,
    point_class,
    pushforward_char_cover,
)

__version__ = "0.1.0"

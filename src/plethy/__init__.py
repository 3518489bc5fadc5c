"""Exact symmetric-group character computations around the grid-subdivision
embedding: partitions, abacus combinatorics, symmetric functions expanded in
power sums, ribbon-stripping character values with a persistent cache, and
theorem-verification sweeps."""

from .abacus import d_core, d_quotient, d_sign
from .characters import (
    ROUTE_DIRECT,
    ROUTE_PLETHYSTIC,
    boxplus_classfunction,
    decompose,
    scaled_classfunction,
)
from .config import Config, default_cache_path, load_config, parse_config, save_config
from .mn import CacheFormatError, CharCache, DegreeMismatchError, character_table, mn_value
from .partitions import (
    EMPTY,
    Partition,
    PartitionError,
    boxplus,
    centralizer_order,
    check_partition,
    conjugate,
    format_partition,
    multiplicity_pattern,
    parse_partition,
    partitions_of,
    scale,
    sort_key,
    union,
    union_power,
)
from .symfunc import (
    SymFunc,
    format_rational,
    hall_inner,
    multiply,
    phi_d_littlewood,
    phi_d_power,
    power_d,
    power_to_schur,
    psi_d,
    schur_to_power,
    to_power,
)
from .verify import (
    VerificationReport,
    f_dim,
    hall_summation_oracle,
    orbit_divisibility_check,
    run_verify_all,
    verify_hall_oracle,
    verify_littlewood,
    verify_theorem1,
    verify_theorem1_scaled,
    verify_theorem2_div,
    verify_theorem2_vanish,
)

__version__ = "0.1.0"

"""Exception types shared across the package, and its shared input checks."""

import numbers


class PartitionTunerError(Exception):
    """Base class for all package errors."""


class DataError(PartitionTunerError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class NumericError(PartitionTunerError):
    """Numeric failure such as overflow or an infeasible exact mode (CLI exit code 3)."""


class BadAlphaRange(DataError):
    """Generator parameter alpha outside its permitted range."""


class InconsistentMetric(DataError):
    """Distances break the metric contract: a distance matrix that is not
    symmetric or has a nonzero diagonal, or specified distances that violate
    a shortest-path bound during completion."""


class NonPositiveDistance(DataError):
    """An off-diagonal distance is zero or negative, for example between two
    copies of one point."""


class AsymmetricMatrix(DataError):
    """A coefficient matrix is not symmetric."""


class Disconnected(DataError):
    """Partial distance graph is not connected, so completion is impossible."""


class OffsetsNotDecreasing(DataError):
    """Round offsets must decrease strictly and stay resolvable in float arithmetic."""


class ParseError(DataError):
    """Instance or config file does not match the expected schema."""


class DimensionMismatch(DataError):
    """Array shapes disagree with the declared instance size."""


class NonFiniteDistance(DataError):
    """A distance matrix holds NaN or an infinite entry."""


class NonFiniteValue(DataError):
    """A coefficient matrix, embedding or projection holds NaN or an infinite entry."""


class MissingGroundTruth(DataError):
    """Objective requires ground-truth labels the instance does not carry."""


class KTooLarge(DataError):
    """Requested cluster count exceeds the number of leaves."""


class CenterOutsideCluster(DataError):
    """A proposed center is not a member of its cluster."""


class DomainError(DataError):
    """Parameter value outside a family's domain (e.g. alpha = 0 for a power family)."""


class UnknownFamily(DataError):
    """Merge family tag not recognized."""


class SigmaTooLargeForExact(NumericError):
    """Exact weight-vector search is only available for sigma = 2."""


class SweepDiverged(NumericError):
    """A lazy sweep kept finding breakpoints past its refinement depth."""


class RootNotConverged(NumericError):
    """Bisection could not narrow a root's bracket to the requested tolerance."""


class Overflow(NumericError):
    """A requested quantity exceeds floating-point range."""


class NonNullDiagonal(NumericError):
    """Expectation formula requires a zero diagonal on the coefficient matrix."""


class ClassTooLarge(NumericError):
    """Discretized rounding-class enumeration would exceed the cap."""


def is_int(x) -> bool:
    """x is an integer (np.int64 too), not a bool or an integral float."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_seed(seed):
    """seed, if it is an integer in [0, 2**128), the key range of the
    package's Philox streams; else DomainError."""
    if not (is_int(seed) and 0 <= seed < 2 ** 128):
        raise DomainError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return seed

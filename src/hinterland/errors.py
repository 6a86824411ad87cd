"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`HinterlandError` so callers
(and the CLI) can distinguish domain failures from genuine bugs. A value
outside a function's domain raises :class:`InvalidInput`, which is also a
``ValueError``.
"""


class HinterlandError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(HinterlandError, ValueError):
    """An argument or input file lies outside the domain a function accepts."""


# --- geometry ---------------------------------------------------------------


class EmptyDomain(HinterlandError):
    """The inside predicate marked no cell of the grid."""


class DisconnectedDomain(HinterlandError):
    """The inside mask splits into more than one 4-connected component."""


class NonFiniteWeight(HinterlandError):
    """A Voronoi weight vector contains NaN or infinity."""


class SingleSite(HinterlandError):
    """An operation needing at least two sites got one."""


class CoincidentSites(HinterlandError):
    """Two sites share a position where distinct positions are required."""


# --- fields -----------------------------------------------------------------


class NonPositiveAmenity(HinterlandError):
    """An amenity sample is zero, negative, or non-finite."""

    def __init__(self, cell_index, value):
        self.cell_index = cell_index
        self.value = value
        super().__init__(f"amenity sample at cell {cell_index} is {value!r}; must be finite and > 0")


class AsymmetricMetric(HinterlandError):
    """A metric-generated trade matrix would be asymmetric."""


# --- integrals --------------------------------------------------------------


class InactiveSiteWithMass(HinterlandError):
    """A labor mass was supplied for a site whose cell is empty."""


# --- equilibrium ------------------------------------------------------------


class DegenerateGamma1(HinterlandError):
    """gamma1 = 0: the weight system loses its left-hand side."""


class DegenerateConstantRecovery(HinterlandError):
    """gamma1 = gamma2: the additive constant of the fixed point is undetermined."""


class NotConverged(HinterlandError):
    """An iterative solver hit max_iter before reaching tolerance."""

    def __init__(self, what, iterations, step):
        self.what = what
        self.iterations = iterations
        self.step = step
        super().__init__(f"{what} did not converge in {iterations} iterations (last step {step:.3e})")


class LeftFeasibleSet(HinterlandError):
    """The weight iterate emptied a cell twice; the run left the feasible set."""


class ZeroLabor(HinterlandError):
    """The market block needs strictly positive labor masses."""


class EmptyCellInSum(HinterlandError):
    """A kernel sum referenced the amenity aggregate of an inactive site."""


class InvalidVariantParams(InvalidInput):
    """Variant-specific parameters violate their domain."""


# --- analysis / sustainability ----------------------------------------------


class SiteNotVacant(HinterlandError):
    """potential_weight was asked about a site that is active."""


class SiteOutsideDomain(HinterlandError):
    """A vacant site lies on an outside cell, so no active site hosts it."""


# --- cli --------------------------------------------------------------------


class ConfigError(HinterlandError):
    """The run configuration failed schema validation."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)

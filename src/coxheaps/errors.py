"""Typed errors shared across the library.

Every error carries a stable ``type_name`` used by the CLI when reporting
failures, so callers can dispatch without string-matching messages.
Resource caps raise ``ResourceCapExceeded`` subclasses: these are
*inconclusive* outcomes, never wrong answers.  The default caps live here,
where the CLI reads them without loading the modules that apply them;
``words``, ``toric`` and ``heaps`` export them under the same names.
"""

DEFAULT_ORBIT_CAP = 2_000_000  # braid-orbit and R_tor listings (``words``, ``cyclic``)
DEFAULT_CLASS_CAP = 1_000_000  # toric classes listed member by member (``toric``)
DEFAULT_EXTENSION_CAP = 1_000_000  # linear extensions of a heap (``heaps``)


class CoxError(Exception):
    """Base class for all domain errors raised by coxheaps."""

    @property
    def type_name(self) -> str:
        return type(self).__name__


class GraphSpecError(CoxError):
    """Invalid Coxeter graph description (duplicate names, bad bond, ...)."""


class GraphFileError(CoxError):
    """A graph file that cannot be opened or decoded."""


class UnknownGenerator(CoxError):
    """A generator name or index that the graph does not declare."""


class WordSyntaxError(CoxError):
    """Unparseable word text."""


class ResourceCapExceeded(CoxError):
    """A configured search cap was hit before the answer was decided."""


class OrbitCapExceeded(ResourceCapExceeded):
    """Braid-orbit search truncated; raise the cap to decide."""


class ClassCapExceeded(ResourceCapExceeded):
    """Toric equivalence class too large to materialize under the cap."""


class ExtensionCapExceeded(ResourceCapExceeded):
    """Linear-extension enumeration exceeded its cap."""


class TooLarge(ResourceCapExceeded):
    """Input outside the supported exhaustive-search range."""


class NotReduced(CoxError):
    """Operation requires a reduced word."""


class NotToricallyReduced(CoxError):
    """Operation requires a torically reduced word; ``chain`` shows why, or is None."""

    chain = None


class NotASource(CoxError):
    """Vertex is not a source of the orientation."""


class NotASink(CoxError):
    """Vertex is not a sink of the orientation."""


class NotAcyclic(CoxError):
    """Edge directions contain a directed cycle."""


class GraphMismatch(CoxError):
    """Operands live over different graphs."""


class NotACoxeterWord(CoxError):
    """Word does not use each generator exactly once."""


class ShapeMismatch(CoxError):
    """Word does not have the shape required by the operation."""


class SpokeError(CoxError):
    """The designated pair is not an even spoke of the graph."""


class SeedWordError(CoxError):
    """Seed word violates the constructor's preconditions."""

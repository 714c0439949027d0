"""Error vocabulary shared by every cantorlab module.

All errors that signal a desk-scale resource boundary rather than a bug
(CapExceeded, NotFoundWithinBudget)
derive from ResourceBoundary so callers can distinguish "raise the budget"
from "fix the input".
"""


class CantorLabError(Exception):
    pass


class ResourceBoundary(CantorLabError):
    """A configured size/search budget was hit; the request itself is sound."""


class CapExceeded(ResourceBoundary):
    """A word or state family would exceed its materialization cap."""


class NotFoundWithinBudget(ResourceBoundary):
    """A bounded search ended without a witness; says nothing beyond the bound."""


class InvalidLevel(CantorLabError, ValueError):
    """A family-level argument outside the defined range (e.g. level 1 where only >= 2 works)."""


class InvalidArgument(CantorLabError, ValueError):
    pass


class EmptySet(CantorLabError):
    """An operation that needs a nonempty clopen set received an empty one."""


class OutsideDomain(CantorLabError):
    """A point or set fails the domain requirement of a partial map."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class NotConnected(CantorLabError):
    """Two vertices lie in different components, so no path exists."""


class BadEnumeration(CantorLabError):
    """A vertex enumeration violates the nondecreasing-path-length precondition."""


class DecisionOverflow(ResourceBoundary):
    """An edge-decision procedure hit its constraint budget mid-stage."""


class EmptyRefinement(CantorLabError):
    """A refinement pass produced an empty cell, violating its guarantee."""


class PrefixTooShort(CantorLabError):
    """A point prefix is too short to select a cell at the requested depth."""


class InvariantBroken(CantorLabError):
    """An internal invariant of a construction failed: a bug, not bad input."""


class StageRelationCycle(InvariantBroken):
    """A stage's successor relation has a cycle, so its words have no split order."""

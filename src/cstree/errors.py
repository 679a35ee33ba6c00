"""Exception and warning types shared across the package."""


class CStreeError(Exception):
    """Base class for every error this package raises on purpose."""


class NotACylinderError(CStreeError):
    """An extensional stage is not the outcome set of any fixed context."""


class OverlapError(CStreeError):
    """Two stages at the same level contain a common vertex."""


class GapError(CStreeError):
    """An explicit level partition leaves vertices uncovered."""


class BadCardinalityError(CStreeError):
    """Cardinalities below 2, length mismatches, or digits out of range."""


class BadIndexError(CStreeError):
    """A variable, level, or outcome index outside the declared system."""


class BadGraphError(CStreeError):
    """A graph whose vertices or edges violate the ordering contract."""


class OverlappingSetsError(CStreeError):
    """The four blocks of an independence statement are not disjoint."""


class ShapeMismatchError(CStreeError):
    """Inference-rule inputs do not have the shape the rule requires."""


class IncompleteFamilyError(CStreeError):
    """A context-merging step was given only part of an outcome family."""


class NotSameStageError(CStreeError):
    """A balance check on two vertices that do not share a stage."""


class NotP3Error(CStreeError):
    """The three-variable classifier was handed a tree with p != 3."""


class BudgetExceededError(CStreeError):
    """An enumeration would exceed the configured node-count budget."""


class BoundTooLargeError(CStreeError):
    """A fiber-walk bound that would enumerate too many tables."""


class UnbalancedError(CStreeError):
    """An operation that requires a balanced tree got an unbalanced one."""


class PreconditionError(CStreeError):
    """An operation's stated precondition does not hold for the input."""


class UsageError(CStreeError):
    """A command line the parser cannot read."""


class UnbalancedWarning(UserWarning):
    """Emitted when a construction is run on an unbalanced tree anyway."""

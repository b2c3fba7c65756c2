"""Exception types shared across the package."""


class SenseTraceError(Exception):
    """Base class for all sensetrace errors."""


class EmptyWindow(SenseTraceError):
    """A window contains no relevant samples (or an empty aggregate was requested)."""


class InvalidMeasure(SenseTraceError):
    """A sensor measure is non-finite or physically impossible."""


class InvalidDistance(SenseTraceError):
    """A distance argument is non-positive or non-finite."""


class EmptySequence(SenseTraceError):
    """A sequence comparison was attempted on an empty sequence."""


class NoContact(SenseTraceError):
    """A contact-log operation was attempted for a negative decision."""


class ModeError(SenseTraceError):
    """A report operation was invoked against a server in the wrong mode."""


class ScenarioError(SenseTraceError):
    """A scenario or testbed is inconsistent (bad placement, bad config)."""


class EvaluationError(SenseTraceError):
    """Evaluation inputs are mismatched or empty."""

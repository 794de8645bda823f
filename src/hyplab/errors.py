"""Exception hierarchy shared by all hyplab modules."""


class HyplabError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpecError(HyplabError):
    """A function descriptor is malformed (bad parameter, zero unit value, ...)."""


class PreconditionError(HyplabError):
    """An operation's stated hypothesis is violated by the arguments."""


class ResourceLimitError(HyplabError):
    """A configured work or memory cap would be exceeded."""


class SegmentCapError(ResourceLimitError):
    """A requested value table is wider than the segment cap."""


class WorkCapError(ResourceLimitError):
    """A divisor-tuple enumeration would exceed the work cap."""

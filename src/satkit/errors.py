"""Common base class for errors raised on bad input or violated contracts."""


class SatkitError(Exception):
    """Base for toolkit errors that map to an input-error exit at the CLI."""


class LimitError(SatkitError, ValueError):
    """A limit, cap or count out of its range, such as a negative timeout."""

"""The library's error root.

Every exception the library raises on purpose is a `TreedeskError`, and
keeps a builtin base (ValueError, KeyError, ...) that says what kind of
fault it is.  The CLI reports any `TreedeskError` as a usage or input
error; any other exception is a bug.
"""


class TreedeskError(Exception):
    """Root of the library's documented errors."""


class UnknownNode(TreedeskError, KeyError):
    """A node id that the fragment does not contain."""


class BadArgument(TreedeskError, ValueError):
    """An argument outside the operation's domain."""

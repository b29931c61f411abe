"""Exception types shared across the package."""


class GeanError(Exception):
    """A rejected input, setting or call; the CLI exits 1 on it."""


class FormatError(GeanError):
    """Malformed binary file; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (at byte offset %d)" % (message, offset))
        self.offset = offset

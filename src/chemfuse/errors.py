"""The one exception type for input that chemfuse cannot use."""


class InputError(ValueError):
    """Input from outside the program that chemfuse cannot use. The CLI
    exits 1 on it, and 2 on any other exception, which is a chemfuse bug."""

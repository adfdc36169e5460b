"""The package's one exception type.

Every input the program cannot use (a file, a config value, a checkpoint or
a corpus) fails as a `SemhardError` whose message names it: the file and
line where there is one, else the key, caption or matrix at fault. So do
the few failures that are no input's fault, such as an SVD that does not
converge or a worker that dies. The CLI prints the message as its one
`error:` line and exits 1: the message, not a subclass, tells failures apart.
"""


class SemhardError(ValueError):
    """An input the program cannot use, or a step that failed on it, named in the
    message. A ValueError, as every input the program rejects is a value it cannot take."""

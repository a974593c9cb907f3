"""Error taxonomy shared across modules.

InputError: the input is malformed or violates a structural precondition
(bad rational literal, J^2 != -I, Jacobi failure, non-unimodular algebra,
non-real coefficient data, a user-sized input outside its limits).  CLI exit
code 2.  Any other exception that reaches the CLI (a ValueError, TypeError,
IndexError, ...) is a fault of this package and exits 3 as an internal error.

RefusalError: the input is well formed but outside the range of the exact
derivations this package implements (for example a torus structure whose
obstruction vanishes without the coefficients being constant).  The honest
answer is to refuse rather than guess.  CLI exit code 1.

InternalCheckError: two independent computations of the same quantity
disagree (the three integrability tests, the two harmonic kernels, the
canonical bundle check beta_1 ^ vol = dbar vol, and the mode oracle; the
tests' star oracle raises it too).  A fault of acx, never of the input.  CLI
exit code 3.

A message that quotes user input quotes it through echo, which shows at
most 40 characters of it, so the message stays short whatever the input.
"""


class InputError(ValueError):
    pass


class RefusalError(RuntimeError):
    pass


class InternalCheckError(AssertionError):
    """A failed cross-check; `check` names it, the message says how."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def echo(value) -> str:
    """value as a message quotes it: repr(value) when a string value has at
    most 40 characters, or another value's repr has; else the first 40 of
    those characters (a string's quoted) and their count, as
    "'head'... (n characters)"."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{head}... ({len(text)} characters)"

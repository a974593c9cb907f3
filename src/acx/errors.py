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

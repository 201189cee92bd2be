"""Exception types shared across the package."""

from __future__ import annotations


class BrqstError(Exception):
    """Base class for domain failures raised by this package."""


class FailureSetError(BrqstError):
    """A required principal block is numerically singular.

    Raised when an algebraic completion step (or a Schur complement) hits a
    state whose designated A-block has numerical rank below the requested
    rank, with no alternate submatrix covering the same entries.
    """

    def __init__(self, message: str, member_index: int | None = None):
        super().__init__(message)
        self.member_index = member_index


class DegenerateEstimateError(BrqstError):
    """The optimizer returned an (almost) zero matrix; no state can be formed."""


class InfeasibleError(BrqstError):
    """The residual ball holds no feasible point of the program.

    ``kind`` names the certificate.  Trace minimization raises with
    ``"ls_residual_exceeds_radius"`` once its trace cap is inactive above
    the radius: the least residual over X >= 0 then exceeds the ball radius,
    so the ball holds no PSD matrix.  Maximum likelihood raises with
    ``"density_residual_exceeds_radius"`` when the least residual over
    density matrices exceeds the radius, so the ball holds no density
    matrix.
    """

    def __init__(self, message: str, kind: str | None = None):
        super().__init__(message)
        self.kind = kind

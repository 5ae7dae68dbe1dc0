"""Reference Newton solve of the collocation equations, one factorization a step.

Test-only code: the differential tests in ``test_periodic.py`` run
:func:`newton` on the inputs of every ``yamada_delay.periodic._newton``
call of a solve and compare the results.

* :func:`newton` is full Newton as the library ran it before it kept its
  factorization: the Jacobian is assembled and factored by ``splu`` at
  every iterate, a step that would not lower the 2-norm of the equations
  is halved down to ``MIN_DAMPING``, and the branch slope is solved with
  the last factorization, made at the iterate before the final update.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from yamada_delay.errors import NumericalError
from yamada_delay.periodic import MIN_DAMPING, NEWTON_MAX_STEPS, NEWTON_TOL, _residual


def newton(X, T, level, mesh, p):
    """Full Newton from the node states ``X`` and period ``T``.

    Returns the converged ``X``, ``T``, the number of steps (one
    factorization each) and the branch slope ``dT / dtau``.
    """

    def equations(X, T):
        F, J = _residual(X, T, mesh, p, jacobian=True)
        F[-1] = X[0, 2] - level
        return F, J.tocsc(), np.linalg.norm(F)

    scale = np.append(np.maximum(X.max(axis=0) - X.min(axis=0), 1e-12), T)
    F, J, norm = equations(X, T)
    for steps in range(1, NEWTON_MAX_STEPS + 1):
        try:
            lu = splu(J)
            du = lu.solve(F)
        except RuntimeError as exc:
            raise NumericalError(f"periodic orbit: singular Newton system ({exc})") from None
        if not np.all(np.isfinite(du)):
            raise NumericalError("periodic orbit: Newton's method diverged")
        dX, dT = du[:-1].reshape(-1, 3), du[-1]
        size = np.append(np.abs(dX).max(axis=0), abs(dT))
        if (size / scale).max() <= NEWTON_TOL:
            d_nodes, _, d_der = mesh.delayed(mesh.gauss, T, p.tau)
            dz = (d_der * X[d_nodes, 2]).sum(axis=-1)
            F_tau = np.zeros_like(F)
            F_tau[2:-1:3] = (mesh.h[:, None] * p.kappa * dz).ravel()  # the I rows
            return X - dX, T - dT, steps, float(-lu.solve(F_tau)[-1])
        damping = 1.0
        while True:
            X1, T1 = X - damping * dX, T - damping * dT
            if T1 > 0.0:
                F1, J1, norm1 = equations(X1, T1)
                if norm1 < norm:  # a NaN norm fails
                    break
            if damping <= MIN_DAMPING:
                raise NumericalError("periodic orbit: Newton's method stalled")
            damping *= 0.5
        X, T, F, J, norm = X1, T1, F1, J1, norm1
    raise NumericalError(
        f"periodic orbit: Newton's method did not converge in {NEWTON_MAX_STEPS} steps"
    )

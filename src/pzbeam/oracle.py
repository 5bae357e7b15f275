"""Independent cross-check of the analytic reduction.

Each layer is split into n sublayers and the transverse stress T22 is kept
as an independent piecewise-linear unknown (two coefficients per sublayer).
Per unit length of beam, the mixed quadratic functional

    Pi = integral over the thickness of width * G,
    G  = 1/2 Q11 S11^2 - e31 E3 S11 - 1/2 eps33 E3^2
         - (T22 - Q12 S11 + e32 E3)^2 / (2 Q22)

is the partial Legendre transform of the sectional energy in S22, so its
stationary point over the T22 unknowns reproduces the closures:

    NS  : T22 = 0 everywhere (no unknowns)
    ND  : unconstrained stationarity  ->  S22 = 0
    NSR : stationarity subject to  int T22 dz = int z T22 dz = 0, imposed
          through two explicit Lagrange multipliers; the multipliers are
          the section-wide transverse strain coefficients (a, b)

The Hessian of the stationary value over (eps, kappa, V_t) is the coupled
constitutive matrix; its electrical block is the negative of the
capacitance block, matching the storage convention of reduce_section.

Sublayer quantities are integrated in coordinates centered on each
sublayer, which keeps the T22 blocks diagonal and avoids the cancellation
that plain z-moments suffer for thin sublayers far from the midplane.

Shares no assembly code with section.reduce_section; for the layerwise
linear fields of this model the two agree to round-off at any n.
"""

from __future__ import annotations

import numpy as np

from .section import Closure, LayupError, Section, SectionConstitutive, _is_count


def _sublayers(section: Section, n: int) -> tuple:
    """Material, thickness, center and E3 columns of the stack cut into n sublayers per layer."""
    if not _is_count(n, 1):
        raise LayupError(f"sublayer count must be an integer of at least 1, got {n!r}")
    materials, thickness, poling = section.materials, section.thicknesses, section.polings
    ev = np.zeros((len(thickness), 2 + section.n_terminals))  # E3 row per unit state, poling frame
    for t, members in enumerate(section.terminals):
        for i in members:
            ev[i, 2 + t] = -poling[i] / thickness[i]
    per_layer = [(m.Q11, m.Q12, m.Q22, m.e31, m.e32, m.eps33, h)
                 for m, h in zip(materials, thickness)]
    *material, layer_h = np.repeat(per_layer, n, axis=0).T
    h = layer_h / n
    zc = np.repeat(section.z_interfaces[:-1], n) + np.tile(np.arange(n) + 0.5, len(thickness)) * h
    return *material, h, zc, np.repeat(ev, n, axis=0)


def _assemble(section: Section, closure: Closure, n: int):
    """Eliminate the T22 unknowns; return the Hessian and NSR multipliers."""
    q11, q12, q22, e31, e32, eps33, h, zc, ev = _sublayers(section, n)
    w = section.width
    ns, n_u = ev.shape

    mu0 = h                  # centered moments: int 1, int zeta^2
    mu2 = h ** 3 / 12.0
    v0 = np.zeros(n_u); v0[0] = 1.0
    v1 = np.zeros(n_u); v1[1] = 1.0
    # S11 = a0 + a1*zeta with a0 = eps + kappa*zc, a1 = kappa
    a0 = v0[None, :] + zc[:, None] * v1[None, :]          # (ns, n_u)
    # R = -Q12 S11 + e32 E3 = r0 + r1*zeta
    r0 = e32[:, None] * ev - q12[:, None] * a0
    r1 = -q12[:, None] * np.broadcast_to(v1, (ns, n_u))

    # direct (eps, kappa, V) quadratic part of the functional, times width
    e_blk = np.einsum("s,si,sj->ij", w * q11 * mu0, a0, a0)
    e_blk += w * np.sum(q11 * mu2) * np.outer(v1, v1)
    cross = np.einsum("s,si,sj->ij", w * e31 * mu0, ev, a0)
    e_blk -= cross + cross.T
    e_blk -= np.einsum("s,si,sj->ij", w * eps33 * mu0, ev, ev)
    e_blk -= np.einsum("s,si,sj->ij", w / q22 * mu0, r0, r0)
    e_blk -= np.einsum("s,si,sj->ij", w / q22 * mu2, r1, r1)

    if closure is Closure.NS:
        return e_blk, None

    # T22 blocks: A diagonal in centered coordinates, B the cross term,
    # C the two resultant constraints (both scaled by width so that the
    # NSR multipliers come out as the plain strain coefficients)
    a_diag = -(w / q22)[:, None] * np.stack([mu0, mu2], axis=1)      # (ns, 2)
    b_blk = -(w / q22)[:, None, None] * np.stack([mu0[:, None] * r0,
                                                  mu2[:, None] * r1], axis=1)  # (ns, 2, n_u)
    bab = np.einsum("sai,sa,saj->ij", b_blk, 1.0 / a_diag, b_blk)
    if closure is Closure.ND:
        return e_blk - bab, None

    c_blk = np.zeros((ns, 2, 2))      # (ns, dof, constraint)
    c_blk[:, 0, 0] = w * mu0
    c_blk[:, 0, 1] = w * mu0 * zc
    c_blk[:, 1, 1] = w * mu2
    bac = np.einsum("sai,sa,sac->ic", b_blk, 1.0 / a_diag, c_blk)
    cac = np.einsum("sac,sa,sad->cd", c_blk, 1.0 / a_diag, c_blk)
    multipliers = -np.linalg.solve(cac, bac.T)       # (2, n_u)
    return e_blk - bab - bac @ multipliers, multipliers.T


def discretized_oracle(section: Section, closure, n: int) -> SectionConstitutive:
    """Constitutive matrix from the discretized stationarity problem.

    n, the sublayers per layer, is a count of at least 1 (see _is_count);
    any other value raises LayupError.
    """
    closure = Closure.coerce(closure)
    hessian, _ = _assemble(section, closure, n)
    hessian[2:, 2:] *= -1.0     # capacitance block stored positive, as reduce_section does
    return SectionConstitutive(hessian)


def oracle_transverse_multipliers(section: Section, n: int) -> np.ndarray:
    """NSR multipliers per unit state; dual check against nsr_transverse_field."""
    return _assemble(section, Closure.NSR, n)[1]

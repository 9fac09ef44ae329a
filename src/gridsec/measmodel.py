"""The AC measurement model h(x) and its Jacobian H(x), batched over states.

The derivatives are MATPOWER's ``dSbus_dV``/``dSbr_dV`` (Zimmerman et al.,
IEEE Trans. Power Syst. 2011) in polar form with real and imaginary parts
written out. Keep each expression's operation order, which the per-row
reference in ``tests/test_measmodel.py`` checks to the last bit: power-flow
solutions, estimates and the detector baseline fitted from them all move
with the last bits. A state's results do not depend on its batch.

State columns: [theta at non-slack buses, V at all buses].
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .network import NetworkModel, TopologyMatrix, branch_admittances, quiet_admittance

__all__ = ["MeasKind", "MeasurementModel", "injection_derivatives"]


class MeasKind(str, Enum):
    VM = "Vm"
    PINJ = "Pinj"
    QINJ = "Qinj"
    PFLOW = "Pflow"
    QFLOW = "Qflow"


def injection_derivatives(ybus: np.ndarray, v: np.ndarray, theta: np.ndarray):
    """Bus injections P, Q and the blocks dP/dtheta, dP/dV, dQ/dtheta,
    dQ/dV over all buses, for states shaped (..., n); blocks are
    (..., n, n)."""
    g, b = ybus.real, ybus.imag
    vc = v * np.exp(1j * theta)
    s = vc * np.conj((ybus @ vc[..., None])[..., 0])
    p, q = s.real, s.imag
    dth = theta[..., :, None] - theta[..., None, :]
    cos_t, sin_t = np.cos(dth), np.sin(dth)
    vv = v[..., :, None] * v[..., None, :]
    gs_bc = g * sin_t - b * cos_t
    gc_bs = g * cos_t + b * sin_t
    dp_dth = vv * gs_bc
    dp_dv = v[..., :, None] * gc_bs
    dq_dth = -vv * gc_bs
    dq_dv = v[..., :, None] * gs_bc
    i = np.arange(len(ybus))
    dp_dth[..., i, i] = -q - b[i, i] * v**2
    dp_dv[..., i, i] = p / v + g[i, i] * v
    dq_dth[..., i, i] = p - g[i, i] * v**2
    dq_dv[..., i, i] = q / v - b[i, i] * v
    return p, q, dp_dth, dp_dv, dq_dth, dq_dv


def _two_port_from(model: NetworkModel, f_bus: int, t_bus: int) -> tuple[complex, complex]:
    """(yff, yft) of the branch between two buses, seen from ``f_bus``."""
    br = model.branches[model.branch_index(f_bus, t_bus)]
    yff, yft, ytf, ytt = branch_admittances(br)
    return (yff, yft) if br.pair == (f_bus, t_bus) else (ytt, ytf)


class MeasurementModel:
    """h(x) and H(x) of one layout of ``Measurement`` entries on one
    network topology, compiled into index arrays once. An entry at a bus
    outside 1..n, or a flow on a bus pair with no branch, raises
    ValueError naming its channel."""

    def __init__(
        self, model: NetworkModel, topology: TopologyMatrix | None, entries: Sequence
    ) -> None:
        n = self.n_bus = model.n_bus
        self.n_rows = len(entries)
        self.n_state = 2 * n - 1
        self.ybus = quiet_admittance(model, topology)
        self.angle_buses = np.delete(np.arange(n), model.slack_index)

        # Rows per kind, each with its bus or, for flows, its branch end;
        # the P and Q flow rows of one end share that end's terms.
        rows: dict[MeasKind, tuple[list, list]] = {kind: ([], []) for kind in MeasKind}
        ends: dict[tuple[int, int], int] = {}
        bus_index = {bus: bus - 1 for bus in range(1, n + 1)}
        for row, m in enumerate(entries):
            flow = m.kind in (MeasKind.PFLOW, MeasKind.QFLOW)
            try:
                at = ends.setdefault(m.branch, len(ends)) if flow else bus_index[m.bus]
            except KeyError:
                raise ValueError(f"channel {m.channel}: bus outside 1..{n}") from None
            rows[m.kind][0].append(row)
            rows[m.kind][1].append(at)
        self._rows = {k: (np.array(r, dtype=int), np.array(w, dtype=int)) for k, (r, w) in rows.items()}
        self._end_i, self._end_j = (np.array(list(ends), dtype=int).reshape(-1, 2) - 1).T
        two_port = []
        for end in ends:
            try:
                two_port.append(_two_port_from(model, *end))
            except KeyError as exc:
                m = next(m for m in entries if m.branch == end)
                raise ValueError(f"channel {m.channel}: {exc.args[0]}") from None
        two_port = np.array(two_port, dtype=complex)
        self._yff, self._yft = two_port.reshape(-1, 2).T

    def evaluate(
        self,
        v: np.ndarray,
        theta: np.ndarray,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """h shaped (B, m) and H shaped (B, m, 2n - 1) at states shaped
        (B, n), written into the arrays of ``out`` when given."""
        n, ang = self.n_bus, self.angle_buses
        if out is None:
            out = np.empty((len(v), self.n_rows)), np.empty((len(v), self.n_rows, self.n_state))
        h, jac = out
        jac.fill(0.0)
        rows, bus = self._rows[MeasKind.VM]
        h[:, rows] = v[:, bus]
        jac[:, rows, n - 1 + bus] = 1.0

        if self._rows[MeasKind.PINJ][0].size or self._rows[MeasKind.QINJ][0].size:
            p, q, dp_dth, dp_dv, dq_dth, dq_dv = injection_derivatives(self.ybus, v, theta)
            for kind, val, d_th, d_v in (
                (MeasKind.PINJ, p, dp_dth, dp_dv),
                (MeasKind.QINJ, q, dq_dth, dq_dv),
            ):
                rows, bus = self._rows[kind]
                h[:, rows] = val[:, bus]
                jac[:, rows, : n - 1] = d_th[:, bus[:, None], ang]
                jac[:, rows, n - 1:] = d_v[:, bus]

        if self._end_i.size:
            i, j = self._end_i, self._end_j
            gff, bff, gft, bft = self._yff.real, self._yff.imag, self._yft.real, self._yft.imag
            vi, vj = v[:, i], v[:, j]
            dth = theta[:, i] - theta[:, j]
            c, s = np.cos(dth), np.sin(dth)
            cs = gft * c + bft * s
            sc = gft * s - bft * c
            # Per branch end: value, d/dtheta_i (d/dtheta_j is its
            # negative), d/dV_i, d/dV_j.
            terms = {
                MeasKind.PFLOW: (vi * vi * gff + vi * vj * cs, vi * vj * (-gft * s + bft * c),
                                 2 * vi * gff + vj * cs, vi * cs),
                MeasKind.QFLOW: (-vi * vi * bff + vi * vj * sc, vi * vj * cs,
                                 -2 * vi * bff + vj * sc, vi * sc),
            }
            for kind, (val, d_thi, d_vi, d_vj) in terms.items():
                rows, end = self._rows[kind]
                at = np.arange(rows.size)
                h[:, rows] = val[:, end]
                # Both angle derivatives over every bus, then the slack's dropped.
                d_th = np.zeros((len(v), rows.size, n))
                d_th[:, at, i[end]] = d_thi[:, end]
                d_th[:, at, j[end]] = -d_thi[:, end]
                jac[:, rows, : n - 1] = d_th[..., ang]
                jac[:, rows, n - 1 + i[end]] = d_vi[:, end]
                jac[:, rows, n - 1 + j[end]] = d_vj[:, end]
        return h, jac

"""The AC measurement model h(x) and its Jacobian H(x), batched over states.

The derivatives are MATPOWER's ``dSbus_dV``/``dSbr_dV`` (Zimmerman et al.,
IEEE Trans. Power Syst. 2011) in polar form with real and imaginary parts
written out. Keep each expression's operation order, which the per-row
reference in ``tests/test_measmodel.py`` checks to the last bit: power-flow
solutions, estimates and the detector baseline fitted from them all move
with the last bits. A state's results do not depend on its batch. The
branch-end flow values are the ones ``branch_flows`` reports per branch.

State columns: [theta at non-slack buses, V at all buses].
"""

from __future__ import annotations

import copy
from enum import Enum
from typing import Sequence

import numpy as np

from .network import (
    Branch,
    NetworkModel,
    TopologyMatrix,
    branch_admittances,
    build_topology,
    quiet_admittance,
)

__all__ = ["MeasKind", "MeasurementModel", "branch_flows", "injection_derivatives"]


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


def _end_flows(yff, yft, vi, vj, dth):
    """P and Q entering branch ends at bus i towards bus j, from the end's
    two-port terms ``yff``, ``yft``, the voltage magnitudes and the angle
    difference theta_i - theta_j. Also returns gft cos + bft sin and
    gft sin - bft cos, which the derivatives reuse."""
    c, s = np.cos(dth), np.sin(dth)
    cs = yft.real * c + yft.imag * s
    sc = yft.real * s - yft.imag * c
    p = vi * vi * yff.real + vi * vj * cs
    q = -vi * vi * yff.imag + vi * vj * sc
    return p, q, cs, sc


def branch_flows(
    model: NetworkModel, topology: TopologyMatrix, v: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """P and Q entering every branch of ``model`` at its from end, then at
    its to end (p.u., branch order) at one bus voltage state. A branch out
    of service in ``topology`` carries exactly 0; an end at a NaN bus
    gives NaN."""
    n_br = len(model.branches)
    f, t = (np.array([br.pair for br in model.branches], dtype=np.intp).reshape(-1, 2) - 1).T
    yff, yft, ytf, ytt = np.array(
        [branch_admittances(br) for br in model.branches], dtype=complex
    ).reshape(-1, 4).T
    i, j = np.concatenate([f, t]), np.concatenate([t, f])
    p, q, _, _ = _end_flows(
        np.concatenate([yff, ytt]), np.concatenate([yft, ytf]), v[i], v[j], theta[i] - theta[j]
    )
    live = np.tile(np.array(topology.in_service, dtype=bool), 2)
    p, q = np.where(live, p, 0.0), np.where(live, q, 0.0)
    return p[:n_br], q[:n_br], p[n_br:], q[n_br:]


class MeasurementModel:
    """h(x) and H(x) of one layout of ``Measurement`` entries on one
    network topology (the model's breaker states when None). An entry at
    a bus outside 1..n, or a flow on a bus pair with no branch or with
    parallel branches (the channel cannot say which one it measures),
    raises ValueError naming its channel. A flow on an out-of-service
    branch is exactly 0, with a zero Jacobian row.

    The layout is compiled once into ``h_idx`` (m,) and ``jac_idx``
    (m, 2n - 1), which index one source vector per state: ``[V, P, Q,
    dP/dtheta, dP/dV, dQ/dtheta, dQ/dV (n x n each), flow terms, 0, 1]``.
    The flow terms are ten blocks over the measured branch ends: the P
    flow and its derivatives by theta_i, theta_j (the negated theta_i
    one), V_i and V_j, then the same for Q. ``evaluate`` computes the
    source and gathers h and H from it.
    """

    def __init__(
        self, model: NetworkModel, topology: TopologyMatrix | None, entries: Sequence
    ) -> None:
        n = self.n_bus = model.n_bus
        self.n_rows = len(entries)
        self.n_state = 2 * n - 1
        if topology is None:
            topology = build_topology(model)
        self.ybus = quiet_admittance(model, topology)
        self.angle_buses = np.delete(np.arange(n), model.slack_index)

        # Rows per kind, each with its bus or, for flows, its branch end;
        # the P and Q flow rows of one end share that end's terms. Flow
        # rows of an open bus pair go to ``dead``.
        rows: dict[MeasKind, tuple[list, list]] = {kind: ([], []) for kind in MeasKind}
        dead: list[int] = []
        ends: dict[tuple[int, int], int] = {}
        bus_index = {bus: bus - 1 for bus in range(1, n + 1)}
        # The branches between two buses, each with whether it is in
        # service, looked up either way round.
        by_pair: dict[tuple[int, int], list[tuple[Branch, bool]]] = {}
        for br, live in zip(model.branches, topology.in_service):
            by_pair.setdefault(br.pair, []).append((br, live))
            by_pair.setdefault(br.pair[::-1], []).append((br, live))
        for row, m in enumerate(entries):
            if m.kind not in (MeasKind.PFLOW, MeasKind.QFLOW):
                if m.bus not in bus_index:
                    raise ValueError(f"channel {m.channel}: bus outside 1..{n}")
                at = bus_index[m.bus]
            elif m.branch not in by_pair:
                f_bus, t_bus = m.branch
                raise ValueError(f"channel {m.channel}: no branch between buses {f_bus} and {t_bus}")
            elif len(by_pair[m.branch]) > 1:
                f_bus, t_bus = m.branch
                raise ValueError(
                    f"channel {m.channel}: {len(by_pair[m.branch])} parallel branches between "
                    f"buses {f_bus} and {t_bus}; a flow channel cannot tell them apart"
                )
            elif by_pair[m.branch][0][1]:
                at = ends.setdefault(m.branch, len(ends))
            else:
                dead.append(row)
                continue
            rows[m.kind][0].append(row)
            rows[m.kind][1].append(at)
        rows = {k: (np.array(r, dtype=np.intp), np.array(w, dtype=np.intp)) for k, (r, w) in rows.items()}
        self._end_i, self._end_j = (np.array(list(ends), dtype=np.intp).reshape(-1, 2) - 1).T
        two_port = []
        for end in ends:
            br = by_pair[end][0][0]
            yff, yft, ytf, ytt = branch_admittances(br)
            two_port.append((yff, yft) if br.pair == end else (ytt, ytf))
        self._yff, self._yft = np.array(two_port, dtype=complex).reshape(-1, 2).T

        self._injections = bool(rows[MeasKind.PINJ][0].size or rows[MeasKind.QINJ][0].size)
        flows = 3 * n + 4 * n * n
        zero = flows + 10 * len(ends)
        self._src_len = zero + 2
        self.h_idx = np.empty(self.n_rows, dtype=np.intp)
        self.h_idx[dead] = zero
        # Columns theta, then V, at every bus; the slack's theta is dropped below.
        full = np.full((self.n_rows, 2 * n), zero, dtype=np.intp)
        r, bus = rows[MeasKind.VM]
        self.h_idx[r] = bus
        full[r, n + bus] = zero + 1
        for kind, value, block in ((MeasKind.PINJ, n, 0), (MeasKind.QINJ, 2 * n, 2)):
            r, bus = rows[kind]
            self.h_idx[r] = value + bus
            d_th = 3 * n + block * n * n + bus[:, None] * n + np.arange(n)
            full[r] = np.hstack([d_th, d_th + n * n])
        for kind, first in ((MeasKind.PFLOW, 0), (MeasKind.QFLOW, 5)):
            r, end = rows[kind]
            i, j = self._end_i[end], self._end_j[end]
            self.h_idx[r], full[r, i], full[r, j], full[r, n + i], full[r, n + j] = (
                flows + (first + np.arange(5))[:, None] * len(ends) + end
            )
        self.jac_idx = np.delete(full, model.slack_index, axis=1)
        # evaluate gathers with mode='clip', which would hide a bad index.
        idx = np.concatenate([self.h_idx, self.jac_idx.ravel()])
        if idx.size and not 0 <= idx.min() <= idx.max() < self._src_len:
            raise AssertionError("measurement model index outside its source vector")

    def without(self, row: int) -> "MeasurementModel":
        """This model with one row of its layout deleted."""
        reduced = copy.copy(self)
        reduced.n_rows -= 1
        reduced.h_idx = np.delete(self.h_idx, row)
        reduced.jac_idx = np.delete(self.jac_idx, row, axis=0)
        return reduced

    def evaluate(
        self,
        v: np.ndarray,
        theta: np.ndarray,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """h shaped (B, m) and H shaped (B, m, 2n - 1) at states shaped
        (B, n), written into the arrays of ``out`` when given."""
        batch = len(v)
        if out is None:
            out = np.empty((batch, self.n_rows)), np.empty((batch, self.n_rows, self.n_state))
        src = np.empty((batch, self._src_len))
        src[:, -2:] = 0.0, 1.0
        terms = [v]
        if self._injections:
            terms += injection_derivatives(self.ybus, v, theta)
        at = 0
        for term in terms:
            src[:, at:at + term[0].size] = term.reshape(batch, -1)
            at += term[0].size

        if self._end_i.size:
            i, j = self._end_i, self._end_j
            vi, vj = v[:, i], v[:, j]
            p, q, cs, sc = _end_flows(self._yff, self._yft, vi, vj, theta[:, i] - theta[:, j])
            # -sc rounds exactly as -gft sin + bft cos would.
            p_thi = vi * vj * -sc
            q_thi = vi * vj * cs
            gff, bff = self._yff.real, self._yff.imag
            at = 3 * self.n_bus + 4 * self.n_bus**2
            for term in (
                p, p_thi, -p_thi, 2 * vi * gff + vj * cs, vi * cs,
                q, q_thi, -q_thi, -2 * vi * bff + vj * sc, vi * sc,
            ):
                src[:, at:at + i.size] = term
                at += i.size
        # mode='clip' lets take write straight into out, where the default
        # 'raise' fills a copy first; __init__ checked the indices.
        h, jac = out
        np.take(src, self.h_idx, axis=1, out=h, mode="clip")
        np.take(src, self.jac_idx, axis=1, out=jac, mode="clip")
        return h, jac

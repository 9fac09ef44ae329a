"""The AC measurement model h(x) and its Jacobian H(x), batched over states.

The derivatives are MATPOWER's ``dSbus_dV``/``dSbr_dV`` (Zimmerman et al.,
IEEE Trans. Power Syst. 2011) in polar form with real and imaginary parts
written out, built from per-bus and per-branch terms only. Keep each
expression's operation order, which the per-row reference in
``tests/test_measmodel.py`` checks to the last bit: power-flow solutions,
estimates and the detector baseline fitted from them all move with the
last bits. A state's results do not depend on its batch. The branch-end
flow values are the ones ``branch_flows`` reports per branch.

State columns: [theta at non-slack buses, V at all buses].
"""

from __future__ import annotations

import copy
from collections import defaultdict
from enum import Enum
from typing import Sequence

import numpy as np

from .network import (
    Branch,
    NetworkModel,
    TopologyMatrix,
    admittance,
    branch_admittances,
    build_topology,
)

__all__ = ["MeasKind", "MeasurementModel", "branch_flows"]


class MeasKind(str, Enum):
    VM = "Vm"
    PINJ = "Pinj"
    QINJ = "Qinj"
    PFLOW = "Pflow"
    QFLOW = "Qflow"


_FLOWS = (MeasKind.PFLOW, MeasKind.QFLOW)


def _edge_terms(g, b, vi, vj, dth):
    """v_i v_j, cs = g cos + b sin and sc = g sin - b cos of directed bus
    pairs (i, j) with admittance g + jb, at angles theta_i - theta_j."""
    c, s = np.cos(dth), np.sin(dth)
    return vi * vj, g * c + b * s, g * s - b * c


def _end_flows(yff, vi, vv, cs, sc):
    """P and Q entering branch ends at bus i towards bus j, from the end's
    shunt-side term ``yff`` and the ``_edge_terms`` of its ``yft``."""
    p = vi * vi * yff.real + vv * cs
    q = -vi * vi * yff.imag + vv * sc
    return p, q


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
    yft = np.concatenate([yft, ytf])
    vv, cs, sc = _edge_terms(yft.real, yft.imag, v[i], v[j], theta[i] - theta[j])
    p, q = _end_flows(np.concatenate([yff, ytt]), v[i], vv, cs, sc)
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
    (m, 2n - 1), which index one source vector per state, O(n + branches)
    long: ``[V, P, Q, dP/dtheta, dP/dV, dQ/dtheta, dQ/dV, flow terms, 1]``.
    Each derivative block is a 0, the n diagonal terms, then one term per
    directed off-diagonal nonzero (i, j) of Ybus, the edges: v_i v_j sc,
    v_i cs, -(v_i v_j) cs and v_i sc of ``_edge_terms``. A layout with a
    flow adds six blocks over the edges: the P flow entering (i, j) at i
    and its derivatives by theta_i and V_i, then the same for Q. A flow is
    compiled only on a single live branch, whose yft is Ybus[i, j]
    exactly, so its derivatives by theta_j and V_j are edge terms.
    ``evaluate`` computes the source and gathers h and H from it.
    """

    def __init__(
        self, model: NetworkModel, topology: TopologyMatrix | None, entries: Sequence
    ) -> None:
        n = self.n_bus = model.n_bus
        self.n_rows = len(entries)
        self.n_state = 2 * n - 1
        if topology is None:
            topology = build_topology(model)
        self.ybus = admittance(model, topology)
        self.angle_buses = np.delete(np.arange(n), model.slack_index)

        # Rows per kind as flat (row, bus) pairs or, for flows, (row, branch
        # end) pairs; the P and Q flow rows of one end share that end's
        # terms. Flow rows of an open bus pair go to ``dead``.
        rows: dict[MeasKind, list[int]] = defaultdict(list)
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
            if m.kind not in _FLOWS:
                if (at := bus_index.get(m.bus)) is None:
                    raise ValueError(f"channel {m.channel}: bus outside 1..{n}")
            elif (branches := by_pair.get(m.branch)) is None:
                f_bus, t_bus = m.branch
                raise ValueError(f"channel {m.channel}: no branch between buses {f_bus} and {t_bus}")
            elif len(branches) > 1:
                f_bus, t_bus = m.branch
                raise ValueError(
                    f"channel {m.channel}: {len(branches)} parallel branches between "
                    f"buses {f_bus} and {t_bus}; a flow channel cannot tell them apart"
                )
            elif branches[0][1]:
                at = ends.setdefault(m.branch, len(ends))
            else:
                dead.append(row)
                continue
            rows[m.kind] += row, at
        rows = {k: np.array(r, dtype=np.intp).reshape(-1, 2).T for k, r in rows.items()}
        end_i, end_j = (np.array(list(ends), dtype=np.intp).reshape(-1, 2) - 1).T

        # The slot of (i, j) in a derivative block after its leading 0:
        # the diagonal term at i == j, the edge term where Ybus[i, j] != 0,
        # else -1, which selects that 0.
        y = self.ybus.ravel()
        off = y != 0
        off[:: n + 1] = False
        off = np.flatnonzero(off)
        self._edge_i, self._edge_j = np.divmod(off, n)
        self._g, self._b = y.real[off], y.imag[off]
        self._g_ii, self._b_ii = y.real[:: n + 1], y.imag[:: n + 1]
        width = self._width = 1 + n + off.size
        slot = np.full((n, n), -1, dtype=np.intp)
        slot.flat[off] = np.arange(n, width - 1)
        slot.flat[:: n + 1] = np.arange(n)
        # Each measured end's yff at its edge; an unmeasured edge's flow
        # terms are computed with yff = 0 and never read.
        end_edge = slot[end_i, end_j] - n
        self._yff = np.zeros(off.size if ends else 0, dtype=complex)
        for end, e in zip(ends, end_edge):
            br = by_pair[end][0][0]
            self._yff[e] = branch_admittances(br)[0 if br.pair == end else 3]

        self._injections = MeasKind.PINJ in rows or MeasKind.QINJ in rows
        zero = 3 * n
        flows = zero + 4 * width
        self._src_len = flows + 6 * self._yff.size + 1
        # The d/dtheta, then d/dV, columns of a Pinj row at every bus; a
        # Qinj row's are 2 * width further on.
        inj = zero + 1 + np.hstack([slot, slot + width])
        self.h_idx = np.empty(self.n_rows, dtype=np.intp)
        self.h_idx[dead] = zero
        # Columns theta, then V, at every bus; the slack's theta is dropped below.
        full = np.full((self.n_rows, 2 * n), zero, dtype=np.intp)
        for kind, (r, at) in rows.items():
            q = kind in (MeasKind.QINJ, MeasKind.QFLOW)
            if kind is MeasKind.VM:
                self.h_idx[r] = at
                full[r, n + at] = self._src_len - 1
            elif kind not in _FLOWS:
                self.h_idx[r] = (1 + q) * n + at
                full[r] = inj[at] + 2 * width * q
            else:
                i, j, e = end_i[at], end_j[at], end_edge[at]
                self.h_idx[r], full[r, i], full[r, n + i] = flows + (3 * q + np.arange(3))[:, None] * off.size + e
                full[r, j], full[r, n + j] = inj[i, j] + 2 * width * q, inj[i, n + j] + 2 * width * q
        self.jac_idx = np.delete(full, model.slack_index, axis=1)
        # evaluate gathers with mode='clip', which would hide a bad index.
        idx = np.concatenate([self.h_idx, self.jac_idx.ravel(), end_edge])
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
        out: tuple[np.ndarray | None, np.ndarray | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """h shaped (B, m) and H shaped (B, m, 2n - 1) at states shaped
        (B, n), written into the arrays of ``out`` when given. A None in
        the h slot of ``out`` is allocated; a None in the H slot skips
        gathering H, which is returned as None."""
        batch, n = v.shape
        h, jac = out if out is not None else (None, np.empty((batch, self.n_rows, self.n_state)))
        src = np.empty((batch, self._src_len))
        src[:, -1] = 1.0
        src[:, :n] = v
        blocks = src[:, 3 * n:3 * n + 4 * self._width].reshape(batch, 4, self._width)
        blocks[:, :, 0] = 0.0
        i, j = self._edge_i, self._edge_j
        vi, vj = v[:, i], v[:, j]
        vv, cs, sc = _edge_terms(self._g, self._b, vi, vj, theta[:, i] - theta[:, j])
        edge = blocks[:, :, n + 1:]
        edge[:, 0], edge[:, 1], edge[:, 2], edge[:, 3] = vv * sc, vi * cs, -vv * cs, vi * sc
        if self._injections:
            vc = v * np.exp(1j * theta)
            s = vc * np.conj((self.ybus @ vc[..., None])[..., 0])
            p, q, g, b = s.real, s.imag, self._g_ii, self._b_ii
            src[:, n:2 * n], src[:, 2 * n:3 * n] = p, q
            d = blocks[:, :, 1:n + 1]
            d[:, 0], d[:, 1], d[:, 2], d[:, 3] = -q - b * v**2, p / v + g * v, p - g * v**2, q / v - b * v
        if self._yff.size:
            p, q = _end_flows(self._yff, vi, vv, cs, sc)
            g, b = self._yff.real, self._yff.imag
            # -sc rounds exactly as -gft sin + bft cos would.
            src[:, 3 * n + 4 * self._width:-1] = np.concatenate(
                [p, vv * -sc, 2 * vi * g + vj * cs, q, vv * cs, -2 * vi * b + vj * sc], axis=1
            )
        # mode='clip' lets take write straight into out, where the default
        # 'raise' fills a copy first; __init__ checked the indices.
        h = np.take(src, self.h_idx, axis=1, out=h, mode="clip")
        if jac is not None:
            np.take(src, self.jac_idx, axis=1, out=jac, mode="clip")
        return h, jac

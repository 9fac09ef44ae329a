"""The AC measurement model h(x), its Jacobian H(x) and the curvature
sum_i lam_i (Hessian of h_i), batched over states.

The derivatives are MATPOWER's ``dSbus_dV``/``dSbr_dV`` (Zimmerman et al.,
IEEE Trans. Power Syst. 2011) in polar form with real and imaginary parts
written out, built from per-bus and per-branch terms only. Keep each
expression's operation order, which the per-row reference in
``tests/test_measmodel.py`` checks to the last bit: power-flow solutions,
estimates and the detector baseline fitted from them all move with the
last bits. A state's results do not depend on its batch. The branch-end
flow values are the ones ``branch_flows`` reports per branch.

State columns: [theta at every bus but the angle reference of each island
(``angle_buses``), V at all buses].
"""

from __future__ import annotations

import copy
import threading
from collections import defaultdict
from enum import Enum
from itertools import repeat
from operator import attrgetter
from typing import Sequence

import numpy as np

from .network import (
    Branch,
    NetworkModel,
    TopologyMatrix,
    admittance,
    branch_admittances,
    build_topology,
    derived,
    island_references,
)

__all__ = ["MeasKind", "MeasurementModel", "branch_flows", "channel_name", "compiled"]


class MeasKind(str, Enum):
    VM = "Vm"
    PINJ = "Pinj"
    QINJ = "Qinj"
    PFLOW = "Pflow"
    QFLOW = "Qflow"


_FLOWS = (MeasKind.PFLOW, MeasKind.QFLOW)


def channel_name(kind: MeasKind, bus: int, branch: tuple[int, int] | None) -> str:
    """Kind and location of a channel, e.g. ``Vm bus 3`` or ``Pflow 4-7``."""
    where = f"{branch[0]}-{branch[1]}" if branch else f"bus {bus}"
    return f"{kind.value} {where}"


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
    (m, ``n_state``), which index one source vector per state, O(n + branches)
    long: ``[V, P, Q, dP/dtheta, dP/dV, dQ/dtheta, dQ/dV, flow terms, 1]``.
    Each derivative block is a 0, the n diagonal terms, then one term per
    directed off-diagonal nonzero (i, j) of Ybus, the edges: v_i v_j sc,
    v_i cs, -(v_i v_j) cs and v_i sc of ``_edge_terms``. A layout with a
    flow adds six blocks over the edges: the P flow entering (i, j) at i
    and its derivatives by theta_i and V_i, then the same for Q. A flow is
    compiled only on a single live branch, whose yft is Ybus[i, j]
    exactly, so its derivatives by theta_j and V_j are edge terms.
    ``evaluate`` computes the source, each term in its slot, and gathers h
    and H from it. The source of the flat state (every V 1, every theta
    +0), where each estimate from a flat start begins, is computed once at
    compile time and shared with the models ``without`` rows; evaluating
    that state gathers from it. ``curvature`` scatters second derivatives
    from the same edge terms through index arrays compiled with the
    layout. The arrays are read-only, because ``compiled`` shares one
    model between the callers of a layout. ``islands`` pairs each island
    with the bus whose angle it holds fixed (``network.island_references``),
    ``angle_buses`` lists the other buses (``n_state`` = n + their count)
    and ``row_island`` each row's island (-1 for a flow on an open branch).
    ``channel(row)`` names a row's channel.
    """

    def __init__(
        self, model: NetworkModel, topology: TopologyMatrix | None, entries: Sequence
    ) -> None:
        n = self.n_bus = model.n_bus
        # Each row's (kind, bus, branch); a power flow's entries have no branch.
        self._layout = tuple((m.kind, m.bus, getattr(m, "branch", None)) for m in entries)
        self.n_rows = len(entries)
        if topology is None:
            topology = build_topology(model)
        self.ybus = admittance(model, topology)
        self.islands = tuple(island_references(model, topology))
        refs = [ref - 1 for _, ref in self.islands]
        self.angle_buses = np.delete(np.arange(n), refs)
        self.n_state = n + self.angle_buses.size
        island_of = np.empty(n, dtype=np.intp)
        for k, (buses, _) in enumerate(self.islands):
            island_of[[b - 1 for b in buses]] = k

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
                    raise ValueError(f"channel {self.channel(row)}: bus outside 1..{n}")
            elif (branches := by_pair.get(m.branch)) is None:
                f_bus, t_bus = m.branch
                raise ValueError(f"channel {self.channel(row)}: no branch between buses {f_bus} and {t_bus}")
            elif len(branches) > 1:
                f_bus, t_bus = m.branch
                raise ValueError(
                    f"channel {self.channel(row)}: {len(branches)} parallel branches between "
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
        edge_i, edge_j = np.divmod(off, n)
        # A tuple keeps these index arrays writable (see the end of __init__).
        self._ends = edge_i, edge_j
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
        self.row_island = np.full(self.n_rows, -1, dtype=np.intp)
        # Columns theta, then V, at every bus; the references' thetas are dropped below.
        full = np.full((self.n_rows, 2 * n), zero, dtype=np.intp)
        for kind, (r, at) in rows.items():
            q = kind in (MeasKind.QINJ, MeasKind.QFLOW)
            self.row_island[r] = island_of[end_i[at] if kind in _FLOWS else at]
            if kind == MeasKind.VM:
                self.h_idx[r] = at
                full[r, n + at] = self._src_len - 1
            elif kind not in _FLOWS:
                self.h_idx[r] = (1 + q) * n + at
                full[r] = inj[at] + 2 * width * q
            else:
                i, j, e = end_i[at], end_j[at], end_edge[at]
                self.h_idx[r], full[r, i], full[r, n + i] = flows + (3 * q + np.arange(3))[:, None] * off.size + e
                full[r, j], full[r, n + j] = inj[i, j] + 2 * width * q, inj[i, n + j] + 2 * width * q
        self.jac_idx = np.ascontiguousarray(np.delete(full, refs, axis=1))

        # ``curvature`` sums the rows' multipliers into complex LP + j LQ
        # slots: per edge (the Pinj and Pflow rows at its from end), per bus
        # (the Pinj row) and per measured end (the Pflow row). It then
        # scatters the terms of each edge and bus into S, except those in
        # the theta column or row of an angle reference.
        n_edge = off.size
        from_bus = [np.flatnonzero(edge_i == b).tolist() for b in range(n)]
        lam_rows, lam_slots = [], []
        for kind, (r, at) in rows.items():
            if kind is MeasKind.VM:
                continue
            imag = kind in (MeasKind.QINJ, MeasKind.QFLOW)
            for row, k in zip(r.tolist(), at.tolist()):
                if kind in _FLOWS:
                    slots = [end_edge[k], n_edge + n + end_edge[k]]
                else:
                    slots = from_bus[k] + [n_edge + k]
                lam_rows += [row] * len(slots)
                lam_slots += [2 * slot + imag for slot in slots]
        self._y_edge, self._y_ii = y[off], y[:: n + 1]
        na = self.angle_buses.size
        col = np.full(2 * n, -1, dtype=np.intp)
        col[self.angle_buses], col[n:] = np.arange(na), na + np.arange(n)
        # theta_i, theta_j, V_i and V_j of each edge in [theta, V] of all buses.
        ends = np.concatenate([edge_i, edge_j, n + edge_i, n + edge_j])
        ti, tj, vi, vj = col[ends].reshape(4, n_edge)
        # (term, factor, row, column) of S: the terms are vv a, v_j a', v_i a'
        # and a per edge, then Re((LP + j LQ) y_ii) per bus and
        # Re((LP + j LQ) yff) per measured end.
        edge = np.arange(n_edge)
        spots = [(t * n_edge + edge, np.full(n_edge, f), p, q) for t, f, p, q in (
            (0, -1.0, ti, ti), (0, -1.0, tj, tj), (0, 1.0, ti, tj), (0, 1.0, tj, ti),
            (1, 1.0, ti, vi), (1, 1.0, vi, ti), (2, 1.0, ti, vj), (2, 1.0, vj, ti),
            (1, -1.0, tj, vi), (1, -1.0, vi, tj), (2, -1.0, tj, vj), (2, -1.0, vj, tj),
            (3, 1.0, vi, vj), (3, 1.0, vj, vi))]
        spots.append((4 * n_edge + np.arange(n), np.full(n, 2.0), col[n:], col[n:]))
        if self._yff.size:
            spots.append((4 * n_edge + n + edge, np.full(n_edge, 2.0), vi, vi))
        term, factor, p, q = (np.concatenate(x) for x in zip(*spots))
        kept = (p >= 0) & (q >= 0)
        # A tuple, so that the loop below leaves these index arrays writable:
        # np.take copies a read-only one on every call.
        self._curv = (
            np.array(lam_rows, dtype=np.intp), np.array(lam_slots, dtype=np.intp), ends,
            term[kept], factor[kept], p[kept] * self.n_state + q[kept],
        )

        # evaluate gathers with mode='clip', which would hide a bad index.
        idx = np.concatenate([self.h_idx, self.jac_idx.ravel(), end_edge])
        if idx.size and not 0 <= idx.min() <= idx.max() < self._src_len:
            raise AssertionError("measurement model index outside its source vector")
        # ``compiled`` shares one model between callers, so its arrays are
        # read-only. np.take copies a read-only index array on every call,
        # so ``evaluate`` gathers through writable twins of h_idx and jac_idx.
        self._gather = self.h_idx, self.jac_idx
        self.h_idx, self.jac_idx = self.h_idx.view(), self.jac_idx.view()
        # Every estimate from a flat start evaluates this state first.
        self._flat = self._source(np.ones((1, n)), np.zeros((1, n)))
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def without(self, row: int) -> "MeasurementModel":
        """This model with one row of its layout deleted."""
        reduced = copy.copy(self)
        reduced.n_rows -= 1
        reduced._layout = self._layout[:row] + self._layout[row + 1:]
        reduced._gather = _drop(self.h_idx, row), _drop(self.jac_idx, row)
        reduced.h_idx, reduced.jac_idx = reduced._gather
        reduced.row_island = _drop(self.row_island, row)
        rows, slots, *rest = self._curv
        kept = rows != row
        rows = rows[kept]
        reduced._curv = (rows - (rows > row), slots[kept], *rest)
        return reduced

    def channel(self, row: int) -> str:
        """The ``channel_name`` of row ``row``."""
        return channel_name(*self._layout[row])

    def evaluate(
        self,
        v: np.ndarray,
        theta: np.ndarray,
        out: tuple[np.ndarray | None, np.ndarray | None] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """h shaped (B, m) and H shaped (B, m, n_state) at states shaped
        (B, n), written into the arrays of ``out`` when given. A None in
        the h slot of ``out`` is allocated; a None in the H slot skips
        gathering H, which is returned as None. A batch of flat states
        (every V exactly 1, every theta exactly +0) gathers from the
        source computed at compile time."""
        batch = v.shape[0]
        h, jac = out if out is not None else (None, np.empty((batch, self.n_rows, self.n_state)))
        if np.count_nonzero(theta) or np.signbit(theta).any() or not (v == 1.0).all():
            src = self._source(v, theta)
        else:
            src = self._flat if batch == 1 else np.broadcast_to(self._flat, (batch, self._src_len))
        # mode='clip' lets take write straight into out, where the default
        # 'raise' fills a copy first; __init__ checked the indices.
        h_idx, jac_idx = self._gather
        h = np.take(src, h_idx, axis=1, out=h, mode="clip")
        if jac is not None:
            np.take(src, jac_idx, axis=1, out=jac, mode="clip")
        return h, jac

    def _source(self, v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The source vectors (B, ``_src_len``) of states shaped (B, n),
        each term written into its slot. The products vv cs and vv sc,
        which edge and flow terms share, are computed once, and each term
        rounds as its expression in ``_edge_terms`` and ``_end_flows``
        would: (-x) y is -(x y) exactly, and x + (-y) is x - y."""
        batch, n = v.shape
        src = np.empty((batch, self._src_len))
        src[:, -1] = 1.0
        src[:, :n] = v
        # [dP/dtheta, dP/dV, dQ/dtheta, dQ/dV], each [0, diagonal, edges].
        blocks = src[:, 3 * n:3 * n + 4 * self._width].reshape(batch, 4, self._width)
        blocks[:, :, 0] = 0.0
        i, j = self._ends
        vi, vj = v.take(i, axis=1), v.take(j, axis=1)
        vv, cs, sc = _edge_terms(self._g, self._b, vi, vj, theta.take(i, axis=1) - theta.take(j, axis=1))
        vv_cs, vv_sc = vv * cs, vv * sc
        edge = blocks[:, :, n + 1:]
        edge[:, 0], edge[:, 1], edge[:, 3] = vv_sc, vi * cs, vi * sc
        np.negative(vv_cs, out=edge[:, 2])
        if self._injections:
            vc = v * np.exp(1j * theta)
            s = vc * np.conj((self.ybus @ vc[..., None])[..., 0])
            p, q, g, b, v2 = s.real, s.imag, self._g_ii, self._b_ii, v * v
            src[:, n:2 * n], src[:, 2 * n:3 * n] = p, q
            d = blocks[:, :, 1:n + 1]
            d[:, 0], d[:, 1], d[:, 2], d[:, 3] = -q - b * v2, p / v + g * v, p - g * v2, q / v - b * v
        if self._yff.size:
            # P, dP/dtheta_i, dP/dV_i, Q, dQ/dtheta_i and dQ/dV_i of the flow
            # entering each edge at its from end, with yff = g + jb.
            flows = src[:, 3 * n + 4 * self._width:-1].reshape(batch, 6, vv.shape[1])
            g, b, vi2, vi_2 = self._yff.real, self._yff.imag, vi * vi, 2 * vi
            flows[:, 0], flows[:, 2] = vi2 * g + vv_cs, vi_2 * g + vj * cs
            flows[:, 3], flows[:, 5] = vv_sc - vi2 * b, vj * sc - vi_2 * b
            flows[:, 4] = vv_cs
            np.negative(vv_sc, out=flows[:, 1])
        return src

    def curvature(self, v: np.ndarray, theta: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """S = sum_i lam_i (Hessian of h_i) shaped (B, n_state, n_state) at
        states shaped (B, n), for multipliers ``lam`` shaped (B, m):
        MATPOWER's ``d2Sbus_dV2`` and ``d2Sbr_dV2`` (Zimmerman, MATPOWER
        Technical Note 2, 2010) contracted with ``lam``, in the terms of
        ``_edge_terms``. A directed edge (i, j) with multipliers LP =
        lam(Pinj i) + lam(Pflow i-j) and LQ likewise gives, with a = LP cs
        + LQ sc and a' = LQ cs - LP sc (the real and imaginary parts of
        (LP + j LQ)(g + jb) e^(-j(theta_i - theta_j))), -vv a at (theta_i,
        theta_i) and (theta_j, theta_j), vv a at (theta_i, theta_j), v_j a',
        v_i a', -v_j a' and -v_i a' at (theta_i, V_i), (theta_i, V_j),
        (theta_j, V_i) and (theta_j, V_j), and a at (V_i, V_j), each also at
        its transpose. (V_i, V_i) adds 2 (lam(Pinj i) G_ii - lam(Qinj i)
        B_ii) and, per measured end, 2 (lam(Pflow) g_ff - lam(Qflow) b_ff).
        Vm rows and flows on open branches are linear and add nothing.
        Computing S does not evaluate h or H."""
        batch = v.shape[0]
        n, n_edge = self.n_bus, self._y_edge.size
        rows, slots, ends, term, factor, flat = self._curv
        mult = _scatter(lam.take(rows, axis=1), slots, 2 * (2 * n_edge + n)).view(complex)
        at_ends = np.concatenate((theta, v), axis=1).take(ends, axis=1).reshape(batch, 4, n_edge)
        th_i, th_j, vi, vj = at_ends.transpose(1, 0, 2)
        a = mult[:, :n_edge] * self._y_edge * np.exp(-1j * (th_i - th_j))
        terms = [vi * vj * a.real, vj * a.imag, vi * a.imag, a.real,
                 (mult[:, n_edge:n_edge + n] * self._y_ii).real]
        if self._yff.size:
            terms.append((mult[:, n_edge + n:] * self._yff).real)
        values = np.concatenate(terms, axis=1).take(term, axis=1) * factor
        return _scatter(values, flat, self.n_state**2).reshape(batch, self.n_state, self.n_state)


def _drop(a: np.ndarray, row: int) -> np.ndarray:
    """``a`` without its entry ``row`` along the first axis, as a new array."""
    return np.concatenate((a[:row], a[row + 1:]))


def _scatter(values: np.ndarray, idx: np.ndarray, width: int) -> np.ndarray:
    """Per row of ``values`` (B, k), the sums of its entries into ``width``
    slots by ``idx`` (k,), in entry order, so that a row's sums do not
    depend on its batch."""
    batch = values.shape[0]
    flat = idx if batch == 1 else (idx + width * np.arange(batch)[:, None]).ravel()
    return np.bincount(flat, values.ravel(), batch * width).reshape(batch, width)


# The compiled models of recently used layouts, least recent first. The
# bound exceeds the 21 (topology, layout) pairs one bdd workload unit
# cycles through: an LRU smaller than a cyclic working set never hits.
COMPILED_MAX = 64
_compiled: dict[tuple, MeasurementModel] = {}
_compiled_lock = threading.Lock()


_KIND, _BUS = attrgetter("kind"), attrgetter("bus")


class _Key(tuple):
    """A cache key that hashes its parts once: the LRU takes it out of the
    cache and puts it back, and Python hashes a tuple anew each time."""

    def __new__(cls, parts: tuple) -> "_Key":
        key = super().__new__(cls, parts)
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self.hash


def _model_part(model: NetworkModel) -> tuple[_Key, TopologyMatrix]:
    """The model's part of a compile key and its own breakers' topology,
    built once per model object (``network.derived``)."""
    part = _Key((model.branches, tuple((bus.b_shunt, bus.kind, bus.p_gen) for bus in model.buses)))
    return part, build_topology(model)


def compiled(
    model: NetworkModel, topology: TopologyMatrix | None, entries: Sequence
) -> MeasurementModel:
    """``MeasurementModel(model, topology, entries)``, taken from a
    per-process cache of the ``COMPILED_MAX`` most recently used layouts.
    The key is all that the compile reads: the branches, each bus's shunt,
    kind and ``p_gen`` (which fix the angle references), the in-service
    flags and each entry's (kind, bus, branch);
    values and sigmas are not part of it, so every caller of one layout
    gets the same model. The model's part is built once per model object
    and compares by value, so equal models share a compiled layout. A
    layout that does not compile raises on every call and is not kept."""
    # Three flat tuples take a third of the memory of one per entry. An
    # entry without a branch (the power flow's) has None there.
    layout = (
        tuple(map(_KIND, entries)),
        tuple(map(_BUS, entries)),
        tuple(map(getattr, entries, repeat("branch"), repeat(None))),
    )
    with _compiled_lock:
        part, own = derived(model, _model_part)
        if topology is None:
            topology = own
        key = _Key((part, topology.in_service, *layout))
        mm = _compiled.pop(key, None) or MeasurementModel(model, topology, entries)
        _compiled[key] = mm
        if len(_compiled) > COMPILED_MAX:
            del _compiled[next(iter(_compiled))]
    return mm

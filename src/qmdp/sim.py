"""Statevector simulation with dense and sparse backends.

Gates are simulator primitives: Hadamard, X, Ry and a pattern phase flip,
each carrying an arbitrary multi-control pattern of (qubit, required bit)
pairs. Controlled gates act natively on the state, never decomposed into
smaller gates. Qubit 0 is the least significant bit of the basis index;
printed basis strings put the most significant qubit first. Every gate kind
is a real matrix, so a state starting at |0...0> stays real: both backends
store amplitudes as float64 and refuse a complex input.

The dense backend holds all 2**n amplitudes in one array and runs each gate
through it in place, chunk by chunk: ``CHUNK_QUBITS`` sets the chunk at 2**16
amplitudes (512 KiB), and a gate's scratch buffers are at most two chunks. So
dense peak memory is the array plus a few MiB, and ``DENSE_QUBIT_LIMIT``
bounds the peak, not just the amplitudes. Beside the array, one flag per
chunk row may be set only when every byte of the row is +0.0. A gate skips
the rows it would read when all of them are flagged and it maps a (+0.0,
+0.0) pair to (+0.0, +0.0), so a gate costs the rows the state occupies,
and the skipped rows keep the bytes the full pass would have left. The
sparse backend holds only the live amplitudes, an int64 basis-index array
beside a float64 amplitude array in no order, which caps its width at 63
qubits.

Determinism contract: readouts start from ``nonzero()``, the live entries by
ascending basis index, and take probabilities from ``live_probabilities()``
alone. Reductions (norm, marginals, sampling) accumulate in that order, and
sampling uses an inverse-CDF walk driven by ``numpy.random.default_rng(seed)``
and refuses a missing seed, so identical (amplitudes, shots, seed) give
identical counts on either backend. The kernels are sequential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layout import field_value, pattern_mask
from .mdp import _echo

H = "h"
X = "x"
RY = "ry"
FLIP = "flip"
_KINDS = (H, X, RY, FLIP)

DENSE_QUBIT_LIMIT = 26  # 2**26 amplitudes, 512 MiB at 8 bytes each
SPARSE_QUBIT_LIMIT = 63  # basis indices are non-negative int64
ROUND_LIMIT = 1000  # Grover rounds per search, given or hinted: hints reach it near marked mass 6e-7
PRUNE_TOL = 1e-14  # sparse entries below this magnitude are dropped
CHUNK_QUBITS = 16  # dense gates work on 2**16 amplitudes (512 KiB) at a time
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

Controls = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Gate:
    """One primitive gate application.

    ``controls`` lists (qubit, required bit) pairs; the gate acts only on
    basis states matching every pair. ``flip`` negates the amplitude of
    matching basis states and takes no target (an empty pattern is a global
    phase of -1); the other kinds need a target qubit.
    """

    kind: str
    target: int | None = None
    theta: float = 0.0
    controls: Controls = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == FLIP:
            if self.target is not None:
                raise ValueError("flip takes no target, only a control pattern")
        else:
            if self.target is None or self.target < 0:
                raise ValueError(f"{self.kind} needs a non-negative target qubit")
        object.__setattr__(self, "controls", tuple((int(q), int(b)) for q, b in self.controls))
        seen = set()
        for q, b in self.controls:
            if q < 0:
                raise ValueError(f"control qubit {q} is negative")
            if b not in (0, 1):
                raise ValueError(f"control bit for qubit {q} must be 0 or 1, got {b}")
            if q in seen or q == self.target:
                raise ValueError(f"control qubit {q} repeated or equal to target")
            seen.add(q)

    def inverse(self) -> "Gate":
        """H, X and flip are self-inverse; Ry inverts by negating the angle."""
        if self.kind == RY:
            return Gate(RY, self.target, -self.theta, self.controls)
        return self

    def qubits(self) -> list[int]:
        out = [q for q, _ in self.controls]
        if self.target is not None:
            out.append(self.target)
        return out


@dataclass
class Circuit:
    """An ordered gate list over a fixed register width."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        for q in gate.qubits():
            if q >= self.num_qubits:
                raise ValueError(f"gate touches qubit {q} outside register of {self.num_qubits}")
        self.gates.append(gate)
        return self

    def h(self, target: int, controls: Controls = ()) -> "Circuit":
        return self.add(Gate(H, target, controls=controls))

    def x(self, target: int, controls: Controls = ()) -> "Circuit":
        return self.add(Gate(X, target, controls=controls))

    def ry(self, theta: float, target: int, controls: Controls = ()) -> "Circuit":
        return self.add(Gate(RY, target, float(theta), controls))

    def flip(self, pattern: Controls) -> "Circuit":
        return self.add(Gate(FLIP, None, controls=pattern))

    def extend(self, other: "Circuit") -> "Circuit":
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot extend with a circuit of different width")
        for gate in other.gates:
            self.gates.append(gate)
        return self

    def inverse(self) -> "Circuit":
        """Gates reversed, each inverted; C followed by C.inverse() is the identity."""
        return Circuit(self.num_qubits, [g.inverse() for g in reversed(self.gates)])


def format_circuit(circuit: Circuit) -> str:
    """Plain-text dump, one gate per line:
    ``<kind>(<theta?>) target=<q> controls=[<q>:<bit>,...]``."""
    lines = []
    for g in circuit.gates:
        kind = f"ry({g.theta!r})" if g.kind == RY else g.kind
        target = "-" if g.target is None else str(g.target)
        controls = ",".join(f"{q}:{b}" for q, b in g.controls)
        lines.append(f"{kind} target={target} controls=[{controls}]")
    return "\n".join(lines) + ("\n" if lines else "")


def _gate_matrix(gate: Gate) -> tuple[float, float, float, float]:
    # Row-major 2x2 real matrix (m00, m01, m10, m11) of H and Ry; the
    # kernels run X and FLIP as index moves and negations instead.
    if gate.kind == H:
        return _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2
    c = math.cos(gate.theta / 2.0)
    s = math.sin(gate.theta / 2.0)
    return c, -s, s, c


def _keeps_zero(m0: float, m1: float) -> bool:
    """Whether ``m0 * 0.0 + m1 * 0.0``, the kernel's own arithmetic on a
    zero pair, is +0.0: false when both entries are negative (a -0.0 sum)
    and when either is not finite."""
    z = m0 * 0.0 + m1 * 0.0
    return z == 0.0 and math.copysign(1.0, z) > 0


def check_width(num_qubits: int, backend: str) -> None:
    """Refuse a width the backend cannot hold; callers check before costly work."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if backend == "dense" and num_qubits > DENSE_QUBIT_LIMIT:
        itemsize = np.dtype(np.float64).itemsize
        raise ValueError(
            f"dense backend capacity exceeded: {num_qubits} qubits needs "
            f"{_echo((2**num_qubits * itemsize) >> 20)} MiB of amplitudes, limit is "
            f"{DENSE_QUBIT_LIMIT} qubits ({(2**DENSE_QUBIT_LIMIT * itemsize) >> 20} MiB); "
            f"use the sparse backend"
        )
    if backend == "sparse" and num_qubits > SPARSE_QUBIT_LIMIT:
        raise ValueError(
            f"sparse backend capacity exceeded: {num_qubits} qubits, limit is "
            f"{SPARSE_QUBIT_LIMIT} (64-bit basis indices); use fewer steps or a smaller model"
        )


def _real(amps) -> np.ndarray:
    """``amps`` as a float64 array; a complex input is refused in one line."""
    amps = np.asarray(amps)
    if amps.dtype.kind == "c":
        raise ValueError(f"amplitudes must be real, got {amps.dtype}: every gate is a real matrix")
    return amps.astype(np.float64, copy=False)


class _StateBase:
    """Behavior shared by both backends; subclasses store amplitudes."""

    backend = ""
    num_qubits: int

    # subclasses provide apply(gate) and nonzero(): fresh ascending copies of
    # the live (basis index, float64 amplitude) arrays every readout starts from

    def apply_circuit(self, circuit: Circuit) -> "_StateBase":
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit width {circuit.num_qubits} does not match state width {self.num_qubits}"
            )
        for gate in circuit.gates:
            self.apply(gate)
        return self

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.num_qubits}b")

    def live_probabilities(self) -> tuple[np.ndarray, np.ndarray]:
        """(ascending basis indices, probabilities) of the live entries: the one
        probability rule, equal to the per-entry ``abs(a) ** 2`` bit for bit."""
        idx, amps = self.nonzero()
        return idx, np.float_power(np.abs(amps), 2)

    def norm(self) -> float:
        return float(np.sum(self.live_probabilities()[1]))

    def nonzero_items(self) -> list[tuple[int, float]]:
        """(basis index, amplitude) pairs, ascending index."""
        idx, amps = self.nonzero()
        return list(zip(idx.tolist(), amps.tolist()))

    def probabilities(self) -> dict[str, float]:
        """Nonzero basis probabilities keyed by printed bit string."""
        idx, probs = self.live_probabilities()
        return dict(zip(map(self.bitstring, idx.tolist()), probs.tolist()))

    def pattern_items(self, pattern: Controls) -> list[tuple[int, float]]:
        """(index, probability) over nonzero basis states matching a pattern,
        ascending index; the selection is the kernel's ``idx & mask == want``."""
        mask, want = pattern_mask(pattern)
        idx, probs = self.live_probabilities()
        hit = (idx & mask) == want
        return list(zip(idx[hit].tolist(), probs[hit].tolist()))

    def pattern_probability(self, pattern: Controls) -> float:
        return float(sum(p for _, p in self.pattern_items(pattern)))

    def marginal(self, qubits: list[int]) -> dict[int, float]:
        """Distribution over the values of an ordered qubit subset.

        ``qubits[j]`` contributes bit j of the key, so a register listed
        least-significant-first maps to its plain integer value. Only
        patterns with nonzero probability appear.
        """
        if len(set(qubits)) != len(qubits):
            raise ValueError("marginal qubits must be distinct")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} outside register of {self.num_qubits}")
        idx, probs = self.live_probabilities()
        out: dict[int, float] = {}
        for key, p in zip(field_value(idx, qubits).tolist(), probs.tolist()):  # ascending index: fixed order
            out[key] = out.get(key, 0.0) + p
        return dict(sorted(out.items()))

    def sample(self, shots: int, seed: int) -> dict[str, int]:
        """Seeded counts by inverse CDF, keyed by bit string in ascending basis
        index order; drawing without a seed is refused."""
        if shots < 0:
            raise ValueError(f"shots must be >= 0, got {shots}")
        if shots == 0:
            return {}
        if seed is None:
            raise ValueError("sampling without a seed is not reproducible; pass one")
        idx, probs = self.live_probabilities()
        if len(idx) == 0:
            raise ValueError("cannot sample from an all-zero state")
        cum = np.cumsum(probs)
        rng = np.random.default_rng(seed)
        u = rng.random(shots) * cum[-1]
        picks = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        tally = np.bincount(picks, minlength=len(cum))
        return {self.bitstring(int(idx[p])): int(tally[p]) for p in np.flatnonzero(tally).tolist()}

    def dump(self) -> str:
        """One line per nonzero amplitude: ``<bitstring> <re> <im>``, where the
        imaginary part of a real state is always ``0.0``."""
        lines = [f"{self.bitstring(i)} {a!r} 0.0" for i, a in self.nonzero_items()]
        return "\n".join(lines) + ("\n" if lines else "")


class DenseState(_StateBase):
    """Contiguous float64 array of 2**n amplitudes. Every gate kind walks it
    in rows of ``2**CHUNK_QUBITS`` amplitudes (the chunk width is read once,
    at construction): the controls on qubits above a row pick the rows, those
    inside a row index into it.

    ``_zero`` is a list of one bool per row, True only when every byte of
    the row is +0.0; -0.0 counts as busy. |0...0> flags every row but row
    0, and a given array is flagged from its bytes. A gate skips a row, or a
    row pair when its target lies above the row, when every row it reads is
    flagged and it maps (+0.0, +0.0) to (+0.0, +0.0): X always does, H and
    Ry when ``_keeps_zero`` holds for both rows of their matrix (every Ry
    angle in [-pi, pi]), and FLIP never does, since it writes -0.0. Such a
    gate also skips a row pair with one flagged row when the part of the
    busy row it reads holds only +0.0, so it writes no zeros into the
    flagged row. A flagged row that a gate writes is flagged again from its
    bytes; a busy row stays busy, so a fully busy state pays no scan.
    """

    backend = "dense"

    def __init__(self, num_qubits: int, amps: np.ndarray | None = None):
        check_width(num_qubits, self.backend)
        self.num_qubits = num_qubits
        self._chunk = min(CHUNK_QUBITS, num_qubits)
        if amps is None:
            self._amps = np.zeros(1 << num_qubits, dtype=np.float64)
            self._amps[0] = 1.0
            self._zero = [False] + [True] * ((1 << (num_qubits - self._chunk)) - 1)
        else:
            self._amps = _real(amps)
            self._zero = (self._row_bits().max(axis=1) == 0).tolist()

    def _row_bits(self) -> np.ndarray:
        """The amplitudes as one uint64 row per chunk: a row holds only +0.0
        exactly when no bit of it is set."""
        return self._amps.reshape(-1, 1 << self._chunk).view(np.uint64)

    def apply(self, gate: Gate) -> "DenseState":
        n = self.num_qubits
        for q in gate.qubits():
            if q >= n:
                raise ValueError(f"gate touches qubit {q} outside register of {n}")
        # Rows of 2**c amplitudes, each a (2,)*c grid; qubit q < c is axis
        # c-1-q of a row and qubit q >= c is bit q-c of the row number.
        c = self._chunk
        rows = self._amps.reshape((-1,) + (2,) * c)
        zero = self._zero
        index: list = [slice(None)] * c
        mask = want = 0
        for q, b in gate.controls:
            if q < c:
                index[c - 1 - q] = b
            else:
                mask |= 1 << (q - c)
                want |= b << (q - c)
        if gate.kind == FLIP:
            # Exact negation in place, signed zeros as in the sparse kernel:
            # x(-1.0) is exact on a real value. Not np.negative: on numpy 2.4
            # it writes wrong values in place on a float64 view with an
            # 8-element stride (tests/test_sim.py). The Ellipsis keeps a view
            # when every axis of a row is a control.
            sel = (*index, ...)
            for r in range(len(rows)):
                if r & mask == want:
                    view = rows[r][sel]
                    np.multiply(view, -1.0, out=view)
                    zero[r] = False  # a negated +0.0 is -0.0
            return self
        if gate.target < c:  # both halves of the pair lie in one row
            index[c - 1 - gate.target] = 0
            sel0 = (*index, ...)
            index[c - 1 - gate.target] = 1
            sel1 = (*index, ...)
            partner = 0
        else:  # row r pairs with row r | partner; want keeps that bit clear
            sel0 = sel1 = (*index, ...)
            partner = 1 << (gate.target - c)
            mask |= partner
        swap = gate.kind == X
        if not swap:
            m00, m01, m10, m11 = _gate_matrix(gate)
        keeps = swap or (_keeps_zero(m00, m01) and _keeps_zero(m10, m11))
        bits = self._row_bits()
        buf = np.empty_like(rows[0][sel0])
        tmp = np.empty_like(buf)
        for r0 in range(len(rows)):
            r1 = r0 | partner
            if r0 & mask != want or (keeps and zero[r0] and zero[r1]):
                continue
            a0, a1 = rows[r0][sel0], rows[r1][sel1]
            flagged = zero[r0] or zero[r1]
            if flagged and keeps and not (a1 if zero[r0] else a0).view(np.uint64).any():
                continue  # the busy row reads +0.0 too: the pass would only fault in the flagged row
            if swap:
                np.copyto(buf, a0)
                np.copyto(a0, a1)
                np.copyto(a1, buf)
            else:
                # new0 is formed before a0 is overwritten and a1 is scaled in
                # place only once new0 no longer needs it; the
                # multiply-then-add shape, m00 * a0 + m01 * a1 and
                # m10 * a0 + m11 * a1, matches the sparse kernel bit for bit.
                np.multiply(m00, a0, out=buf)
                np.multiply(m01, a1, out=tmp)
                np.add(buf, tmp, out=buf)
                np.multiply(m10, a0, out=tmp)
                np.multiply(m11, a1, out=a1)
                np.add(tmp, a1, out=a1)
                np.copyto(a0, buf)
            if flagged:
                for r in {r0, r1}:
                    if zero[r]:
                        zero[r] = bool(bits[r].max() == 0)
        return self

    def nonzero(self):
        if not any(self._zero):
            idx = np.flatnonzero(self._amps)
        else:  # flagged rows hold only +0.0: scan the others in ascending order
            width = 1 << self._chunk
            rows = self._amps.reshape(-1, width)
            busy = [r for r, flag in enumerate(self._zero) if not flag]
            idx = np.concatenate([np.empty(0, dtype=np.intp)] + [np.flatnonzero(rows[r]) + r * width for r in busy])
        return idx, self._amps[idx]


class SparseState(_StateBase):
    """Live basis indices with their amplitudes; zero entries are absent.

    ``_idx`` holds the live basis indices as an ``int64`` array and ``_amps``
    their ``float64`` amplitudes, in no order: no gate sorts, because each
    entry's arithmetic does not depend on its position; ``nonzero()`` orders
    them for readout. 64-bit indices cap the width at ``SPARSE_QUBIT_LIMIT``
    qubits. After every amplitude-mixing gate, entries with magnitude below
    ``PRUNE_TOL`` are dropped so cancelled branches do not accumulate.
    """

    backend = "sparse"

    def __init__(self, num_qubits: int, amps: dict[int, float] | None = None):
        check_width(num_qubits, self.backend)
        self.num_qubits = num_qubits
        amps = {0: 1.0} if amps is None else amps
        self._idx = np.array(list(amps), dtype=np.int64)
        self._amps = _real(list(amps.values()))

    def apply(self, gate: Gate) -> "SparseState":
        n = self.num_qubits
        for q in gate.qubits():
            if q >= n:
                raise ValueError(f"gate touches qubit {q} outside register of {n}")
        mask, want = pattern_mask(gate.controls)
        idx, amps = self._idx, self._amps
        hit = (idx & mask) == want
        if gate.kind == FLIP:
            self._amps = np.where(hit, -amps, amps)
            return self
        tbit = 1 << gate.target
        if gate.kind == X:
            self._idx = np.where(hit, idx ^ tbit, idx)
            return self
        rest = ~hit
        upper = hit & ((idx & tbit) != 0)
        lower = hit & ~upper
        keys0 = idx[lower]  # pair key: the index with the target bit clear
        keys1 = idx[upper] ^ tbit
        # Pair keys, ascending and distinct, by a sort: np.unique's first
        # call adds 1.7 MiB to peak resident memory.
        keys = np.sort(np.concatenate((keys0, keys1)), kind="stable")
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        a0 = np.zeros(len(keys), dtype=np.float64)
        a1 = np.zeros(len(keys), dtype=np.float64)
        a0[np.searchsorted(keys, keys0)] = amps[lower]  # an absent partner stays 0
        a1[np.searchsorted(keys, keys1)] = amps[upper]
        m00, m01, m10, m11 = _gate_matrix(gate)
        out_idx = np.concatenate((idx[rest], keys, keys | tbit))
        out_amps = np.concatenate((amps[rest], m00 * a0 + m01 * a1, m10 * a0 + m11 * a1))
        live = np.abs(out_amps) >= PRUNE_TOL
        self._idx, self._amps = out_idx[live], out_amps[live]
        return self

    def nonzero(self):
        order = np.argsort(self._idx, kind="stable")  # the default adds 0.3 MiB of sort code to peak RSS
        return self._idx[order], self._amps[order]


def prepare_zero(num_qubits: int, backend: str = "sparse") -> _StateBase:
    """Fresh |0...0> state on the chosen backend.

    The dense backend allocates all 2**n amplitudes and refuses more than
    ``DENSE_QUBIT_LIMIT`` qubits; the sparse backend is bounded by occupied
    entries, up to ``SPARSE_QUBIT_LIMIT`` (63) qubits.
    """
    if backend == "dense":
        return DenseState(num_qubits)
    if backend == "sparse":
        return SparseState(num_qubits)
    raise ValueError(f"unknown backend {backend!r}, expected 'dense' or 'sparse'")

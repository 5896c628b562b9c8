"""Vectorized batch timing engine.

This module prices a whole trace with numpy array scans and closed-form
run arithmetic instead of the per-request Python loop in
:mod:`repro.memory3d.memory`.  It is the default engine
(``engine="vector"``) of :meth:`~repro.memory3d.memory.Memory3D.simulate`
and every caller above it; CI's ``engine-equivalence`` job asserts it
stat-for-stat *equal* (``==``, not approximately equal) to the exact
engine on the full corpus.

How the scan form works
-----------------------

Let ``x_i`` be the completion time of request *i*,
``add_i = t_in_row + jitter_i + correction_i`` its service tail, and
``a_i = x_i - add_i`` its beat (hit) or activation (miss) time.  In the
exact engine every ``a_i`` is the maximum of a handful of lower bounds,
each tying a request to its *predecessor along one chain*:

* **Chain A (discipline)** -- ``a_i >= a_pred + add_pred`` where ``pred``
  is the previous request globally (``in_order``) or on the same vault
  (``per_vault``).
* **Chain B (row buffer)** -- a row miss activates at least
  ``t_diff_row`` after the previous activation of the same bank.
* **Chain C (vault activation gate)** -- consecutive activations on the
  same vault are spaced by ``t_diff_bank`` (same layer) or
  ``t_in_vault`` (different layer); when they hit the same bank, chain B
  already enforces the stronger ``t_diff_row``, so the link is dropped.

Each chain constraint ``a_i >= a_pred + step_i`` becomes a *running
maximum* after subtracting the chain's prefix sum of steps, and a
running maximum over many independent chains is one
``np.maximum.accumulate`` after offsetting each chain into its own
disjoint value band (chain counts are bounded by the device geometry --
vaults and banks -- never by the trace length).  The engine seeds ``a``
with the arrival lower bound and sweeps chains A, B, C until a whole
pass changes nothing: because every relaxation only applies true
constraints of the exact system, the least fixpoint it converges to *is*
the exact engine's solution, bit for bit (both engines share the
integer-picosecond timebase of :mod:`repro.memory3d.timebase`, where
``max``/``add`` are associative).

Two refinements keep the pass count small:

* **Dominance pruning.**  A chain-B/C link whose endpoints are ``d``
  requests apart along their chain-A path is implied by chain A whenever
  ``d * min(add) >= step`` -- composing A's per-request spacing already
  yields a bound at least as strong.  Pruned links break their chain, so
  scattered access patterns (where bank revisits are far apart) collapse
  to chain A alone.
* **Blocking.**  The trace is priced in cache-resident blocks; the exact
  per-bank / per-vault state (open row, earliest next activation, last
  activation, ready times) is carried across block boundaries and enters
  the next block as constant lower bounds on each chain's first members.
  The constraint set is unchanged -- blocking only bounds how far a
  relaxation pass must propagate.

Closed-form run pricing
-----------------------

A :class:`~repro.trace.compile.CompiledTrace` run whose stride keeps
every request on *one* bank (stride divisible by
``row_bytes * vaults * banks_per_vault``) has a trivially serial
interior: each request's beat is ``max(add, t_diff_row)`` after its
predecessor (row-stepping runs miss every time) or exactly ``add``
after it (stride-0 runs hit every time), so the whole run is an
arithmetic series priced with O(1) scalar work.  Only the run's first
two requests see carried device state.  The engine walks a compiled
trace run by run, pricing such uniform-bank runs in closed form and
batching everything else through the array scan above, with the same
carried state threaded through both paths -- so the result is still
bit-identical to the exact engine.  Raw :class:`TraceArray` inputs are
auto-compiled when they compress well (see :data:`AUTO_COMPILE_MIN`);
their array stretches are then sliced from the raw addresses, not
re-expanded from the runs.

Steady-state pricing
--------------------

Phase traces repeat: once a DDL column read or a column walk settles,
every block visit costs the same (the paper's Eq. (1) argument).  An
array stretch with no per-request service tails (no jitter or bit-error
faults) and no arrival times, so that every step is a constant, is
therefore priced one period at a time:

1. Classify every request as a row hit or miss first; the
   classification depends only on the addresses and the carried open
   rows, never on timing.
2. Cut the stretch into blocks of ``P`` requests.  Blocks ``b`` and
   ``b+1`` *repeat* when their (global bank, hit) sequences are equal.
   ``P`` is the power of two from :data:`MIN_PERIOD` up to a quarter of
   the stretch that prices the fewest requests (counting a fixed cost
   per relaxation call).
3. After pricing block ``b`` of a repeating run, compare the carried
   timing state -- ``bank_next_act``, ``last_act_a``, ``vault_ready``,
   ``stream_ready`` -- before and after it.  If every entry the block
   wrote moved by the same ``Δ > 0`` and no vault's ``last_act_bank``
   changed, every later block of the run is block ``b`` shifted by
   ``Δ``: its completions are ``x_b + jΔ``, its activations are block
   ``b``'s, and the state advances by ``Δ`` per block.

This is exact, not an approximation.  The constraints are max-plus:
every lower bound is a state entry or an earlier beat plus a constant
step, so adding ``Δ`` to every input adds ``Δ`` to every output.  A
block reads exactly the entries it writes -- the banks it activates,
the vaults it activates on, and the vaults it serves (``per_vault``) or
the stream (``in_order``) -- so the next identical block sees block
``b``'s input shifted by ``Δ``.  The one bound that is not state, the
zero arrival time, never binds: each request is already bounded below
by its vault or stream ready time, which is ``>= 0``.  ``busy_ps`` and
the last completion are maxima, not inputs, and are folded in as such.

A run whose state does not settle within :data:`MAX_TRIES` blocks, or a
block that breaks the period (a column-group seam of a row-major walk,
say), is priced as usual; shifting resumes at the next repeating run.
:attr:`Memory3D.last_steady_state
<repro.memory3d.memory.Memory3D.last_steady_state>` reports what was
shifted.

TSV return-link contention never constrains either discipline (the
link's previous completion is always <= the stream/vault ready time), so
the scan form omits it.

Support envelope
----------------

Refresh windows, storm/throttle fault windows and per-request event
recording are inherently serial (each request's stall depends on where
inside a wall-clock window its beat lands), so those configurations fall
back to the exact engine -- see :func:`unsupported_reason`.  Arrival
times are handled here, vectorized; vault remapping, latency jitter and
bit-error correction come precomputed from :mod:`repro.memory3d.prepare`,
the same helpers the exact loop uses.

Per-request Python loops are banned in this module by lint rule DET004
(see :mod:`repro.analysis.rules.determinism`): every ``for`` must
iterate over a ``range()`` whose extent is the block count, the run
count, the pass budget or device geometry, never the trace itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.errors import AddressError
from repro.memory3d.prepare import NO_ACT, decode, service_tail
from repro.memory3d.stats import AccessStats
from repro.memory3d.timebase import (
    mean_latency_ns,
    ns_array_to_ps,
    ns_to_ps,
    ps_array_to_ns,
    ps_to_ns,
)
from repro.units import ELEMENT_BYTES

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.faults.plan import FaultState
    from repro.memory3d.config import Memory3DConfig
    from repro.memory3d.memory import Memory3D
    from repro.obs.events import Recorder
    from repro.trace.compile import CompiledTrace
    from repro.trace.request import TraceArray

#: Requests per pricing block.  Big enough to amortize per-block numpy
#: setup, small enough that the working set stays cache-resident and the
#: in-block critical path hops between chain families only a few times.
BLOCK = 1 << 18

#: Upper bound on relaxation sweeps within one block before the engine
#: gives up and the caller falls back to the exact loop.  Real traces
#: settle in a handful of sweeps; the cap only exists so an adversarial
#: interleaving degrades to the exact engine instead of spinning.
MAX_PASSES = 64

#: Raw traces at least this long are auto-compiled to run descriptors
#: (and priced per run when that compresses by :data:`AUTO_COMPILE_RATIO`
#: or better).  Short traces skip the probe -- the array scan is cheap
#: enough there.
AUTO_COMPILE_MIN = 1 << 14

#: Minimum requests-per-run, on average, for auto-compilation to pay:
#: below this the per-run Python arithmetic would rival the array scan.
AUTO_COMPILE_RATIO = 64

#: Smallest steady-state period tried (requests).  Candidates are the
#: powers of two from here up to a quarter of the segment (and at most
#: :data:`BLOCK`), so a period always has at least four blocks to span.
MIN_PERIOD = 256

#: Blocks of one repeating run priced while waiting for the carried
#: state to settle into a uniform shift, before the rest of the run is
#: priced as usual.
MAX_TRIES = 4

#: Fixed cost of one block relaxation, in requests of scan work: the
#: period choice weighs requests priced against calls made.
CALL_COST = 1024


@dataclass(frozen=True)
class SteadyState:
    """What steady-state pricing shifted instead of priced in one run.

    ``period`` is the block size in requests (of the segment that
    shifted the most, if several did), ``blocks_priced`` the blocks the
    scan relaxed in the segments that shifted, and
    ``requests_extrapolated`` the requests whose completions were
    shifted copies of a priced block.
    """

    period: int
    blocks_priced: int
    requests_extrapolated: int


class VectorConvergenceError(RuntimeError):
    """The chain relaxation did not reach a fixpoint within budget.

    Raised (rarely) instead of returning a wrong answer;
    :class:`~repro.memory3d.memory.Memory3D` catches it and re-runs the
    trace on the exact engine.
    """


def unsupported_reason(
    config: Memory3DConfig,
    recorder: Recorder,
    faults: FaultState | None,
) -> str | None:
    """Why this configuration needs the exact engine (``None`` = it doesn't).

    The vector engine handles every timing rule that can be phrased as a
    fixed minimum spacing along a chain.  Window-based features cannot:
    a refresh or storm stall depends on *where in the window* the beat
    lands, which depends on every earlier stall.  Event recording needs
    the per-request loop because events carry per-request context.
    """
    if config.refresh is not None:
        return "refresh windows require serial phase arithmetic"
    if recorder.enabled:
        return "an enabled event recorder requires per-request event emission"
    if faults is not None:
        if faults.storms:
            return "refresh-storm windows require serial phase arithmetic"
        if faults.throttle is not None:
            return "thermal-throttle windows require serial busy accounting"
    return None


def _changes(values: np.ndarray) -> np.ndarray:
    """Boolean head marks: True at 0 and wherever ``values[k] != values[k-1]``."""
    head = np.ones(len(values), dtype=bool)
    head[1:] = values[1:] != values[:-1]
    return head


def _relax(
    a: np.ndarray,
    order: np.ndarray | None,
    c: np.ndarray,
    seg: np.ndarray | None,
) -> bool:
    """One relaxation sweep of ``a`` along a family of disjoint chains.

    ``order`` lists request indices chain by chain (``None`` = the whole
    block in program order, one chain); ``c`` is the prefix sum of the
    chain steps; ``seg`` numbers the chains (``None`` = single chain).
    Enforces, in place,

        a[order[k]] >= a[order[k-1]] + (c[k] - c[k-1])    (within a chain)

    by turning the constraint into a running maximum of ``a - c``, with
    each chain lifted into its own disjoint value band so one
    ``np.maximum.accumulate`` covers all of them.  Returns ``True`` if
    any value was raised.
    """
    cur = a if order is None else a[order]
    y = cur - c
    if seg is not None:
        span = int(y.max()) - int(y.min()) + 1
        # Chain counts are device geometry (<= banks), so the band trick
        # cannot overflow int64 in practice; degrade safely regardless.
        if span * (int(seg[-1]) + 1) >= (1 << 62):
            raise VectorConvergenceError("chain band offset would overflow int64")
        band = seg * span
        y += band
        np.maximum.accumulate(y, out=y)
        y -= band
    else:
        np.maximum.accumulate(y, out=y)
    y += c
    if np.array_equal(y, cur):
        return False
    if order is None:
        a[:] = y
    else:
        a[order] = y
    return True


def _steady_plan(
    gbank: np.ndarray, hit: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Pick the period that prices the fewest requests, or ``None``.

    For each candidate period ``p`` the segment is cut into blocks of
    ``p`` requests, and neighbouring blocks repeat when their
    (global bank, hit) sequences are equal.  A run of ``L >= 3`` equal
    blocks is expected to price two of them and shift the rest.  The
    cost of a plan is the requests it prices plus :data:`CALL_COST` per
    relaxation call; the plain scan is the plan to beat.  Returns
    ``(period, first, last)`` with the first and last block of every
    run worth shifting.  The search stops at the first period whose
    blocks all repeat: any multiple of it would price more.
    """
    n = len(gbank)
    key = gbank << 1
    key |= hit
    best = None
    best_cost = n + CALL_COST * ((n + BLOCK - 1) // BLOCK)
    for bits in range(MIN_PERIOD.bit_length() - 1, BLOCK.bit_length()):
        p = 1 << bits
        if 4 * p > n:
            break
        nb = n // p
        same = (key[p : nb * p] == key[: (nb - 1) * p]).reshape(nb - 1, p).all(1)
        edges = np.diff(same.astype(np.int8), prepend=0, append=0)
        first = np.flatnonzero(edges == 1)
        last = np.flatnonzero(edges == -1)
        keep = last - first >= 2
        first = first[keep]
        last = last[keep]
        cost = (
            n
            - p * int((last - first - 1).sum())
            + CALL_COST * (2 * len(first) + 1)
        )
        if cost < best_cost:
            best = (p, first, last)
            best_cost = cost
        if len(first) == 1 and first[0] == 0 and last[0] == nb - 1:
            break  # one run spans the segment: longer periods price more
    return best


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of ``keys`` in ``[0, bound)``.

    Device ids fit in 8 or 16 bits, where numpy's stable sort is a
    radix sort: about twice as fast as sorting the int64 originals.
    """
    if bound <= 1 << 8:
        keys = keys.astype(np.uint8)
    elif bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _seg_ids(head: np.ndarray) -> np.ndarray | None:
    """Chain ids from head marks (``None`` when there is a single chain)."""
    seg = np.cumsum(head, dtype=np.int64) - 1
    return seg if int(seg[-1]) > 0 else None


class _Segment(NamedTuple):
    """One contiguous trace segment, decoded and classified for the scan.

    ``add`` / ``arrivals`` are ``None`` for a constant ``t_in_row`` tail
    and no arrival bound; ``base`` is the segment's global request index.
    """

    va: np.ndarray
    ba: np.ndarray
    gbank: np.ndarray
    hit: np.ndarray
    add: np.ndarray | None
    min_add: int
    arrivals: np.ndarray | None
    base: int


class _Engine:
    """Carried device state plus aggregates, shared by both pricing paths.

    The attributes mirror the exact engine's per-bank / per-vault
    variables one for one; :meth:`price_arrays` advances them with the
    blocked chain relaxation and :meth:`price_run` with closed-form run
    arithmetic.  Either way the state after a prefix of the trace is
    identical, which is what lets a compiled trace interleave the two.
    """

    def __init__(
        self, memory: Memory3D, discipline: str, n: int, record: bool
    ) -> None:
        cfg = memory.config
        timing = cfg.timing
        self.t_in_row = ns_to_ps(timing.t_in_row)
        self.t_in_vault = ns_to_ps(timing.t_in_vault)
        self.t_diff_bank = ns_to_ps(timing.t_diff_bank)
        self.t_diff_row = ns_to_ps(timing.t_diff_row)
        self.n_layers = cfg.layers
        self.n_vaults = cfg.vaults
        self.n_banks = cfg.total_banks
        self.banks_per_vault = cfg.banks_per_vault
        self.in_order = discipline == "in_order"

        # Carried cross-block state -- exactly the exact engine's arrays.
        self.open_row = np.full(self.n_banks, -1, dtype=np.int64)
        self.bank_next_act = np.zeros(self.n_banks, dtype=np.int64)
        self.last_act_a = np.full(self.n_vaults, NO_ACT, dtype=np.int64)
        self.last_act_bank = np.full(self.n_vaults, -1, dtype=np.int64)
        self.vault_ready = np.zeros(self.n_vaults, dtype=np.int64)
        self.stream_ready = 0

        self.busy_ps = np.zeros(self.n_vaults, dtype=np.int64)
        self.x_out = np.empty(n, dtype=np.int64) if record else None
        self.activations = 0
        self.first_completion = 0
        self.last_completion = 0
        self.latency_sum = 0
        self.latency_max = 0
        #: ``(period, blocks priced, requests shifted)`` per segment the
        #: steady-state path shortened.
        self.steady: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------ array path
    def price_arrays(
        self,
        va: np.ndarray,
        ba: np.ndarray,
        rows: np.ndarray,
        gbank: np.ndarray,
        add: np.ndarray | None,
        min_add: int,
        arrivals: np.ndarray | None,
        base: int,
    ) -> None:
        """Price one contiguous trace segment with the blocked chain scan.

        ``add is None`` means the constant service tail ``t_in_row``
        (the fault-free case); ``base`` is the segment's global request
        index, used for the recorded completions and the first response.
        Without service tails or arrivals, a segment whose blocks repeat
        is priced one period at a time (see "Steady-state pricing").
        """
        n = len(va)
        hit = np.empty(n, dtype=bool)
        for blk in range((n + BLOCK - 1) // BLOCK):
            lo = blk * BLOCK
            hi = min(lo + BLOCK, n)
            hit[lo:hi] = self._classify(gbank[lo:hi], rows[lo:hi])
        seg = _Segment(va, ba, gbank, hit, add, min_add, arrivals, base)
        plan = _steady_plan(gbank, hit) if add is None and arrivals is None else None
        if plan is None:
            self._price_span(seg, 0, n)
        else:
            self._price_steady(seg, plan)

    def _classify(self, gb: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Row-hit flags of a slice, in program order.

        Request k hits iff the previous access to its bank touched the
        same row; "previous" resolves within the slice via a stable
        group-by-bank sort and across slices via the carried open rows,
        which this advances past the slice.  Timing plays no part.
        """
        m = len(gb)
        open_row = self.open_row
        og = _stable_order(gb, self.n_banks)
        gs = gb[og]
        rs = rows[og]
        head_g = _changes(gs)
        hit_sorted = np.zeros(m, dtype=bool)
        hit_sorted[1:] = ~head_g[1:] & (rs[1:] == rs[:-1])
        g_firsts = np.flatnonzero(head_g)
        hit_sorted[g_firsts] = open_row[gs[g_firsts]] == rs[g_firsts]
        g_ends = np.append(g_firsts[1:] - 1, m - 1)
        open_row[gs[g_ends]] = rs[g_ends]
        hit = np.empty(m, dtype=bool)
        hit[og] = hit_sorted
        return hit

    def _price_block(self, seg: _Segment, lo: int, hi: int) -> np.ndarray:
        """Relax requests ``[lo, hi)`` of ``seg`` against the carried state.

        Returns the block's completion times.
        """
        va_b = seg.va[lo:hi]
        ba_b = seg.ba[lo:hi]
        gb_b = seg.gbank[lo:hi]
        hit = seg.hit[lo:hi]
        add_b = seg.add[lo:hi] if seg.add is not None else None
        arr_b = seg.arrivals[lo:hi] if seg.arrivals is not None else None
        min_add = seg.min_add
        start = seg.base + lo
        t_in_row = self.t_in_row
        t_in_vault = self.t_in_vault
        t_diff_bank = self.t_diff_bank
        t_diff_row = self.t_diff_row
        n_layers = self.n_layers
        in_order = self.in_order
        bank_next_act = self.bank_next_act
        last_act_a = self.last_act_a
        last_act_bank = self.last_act_bank
        vault_ready = self.vault_ready

        m = len(va_b)
        pos_b = np.arange(m, dtype=np.int64)
        miss = ~hit

        # --- chain construction -------------------------------------------
        # Misses grouped by bank, in program order within each bank.
        mi = np.flatnonzero(miss)
        ob = mi[_stable_order(gb_b[mi], self.n_banks)]
        self.activations += len(ob)
        gb_ob = gb_b[ob]
        head_b0 = _changes(gb_ob) if len(ob) else np.zeros(0, dtype=bool)

        if in_order:
            rank = pos_b
            ov = None
            # misses in vault order, program order within each vault
            oc = mi[_stable_order(va_b[mi], self.n_vaults)]
        else:
            ov = _stable_order(va_b, self.n_vaults)
            vs = va_b[ov]
            head_v = _changes(vs)
            v_starts = np.flatnonzero(head_v)
            seg_v = np.cumsum(head_v, dtype=np.int64) - 1
            rank_sorted = pos_b - v_starts[seg_v]
            rank = np.empty(m, dtype=np.int64)
            rank[ov] = rank_sorted
            # misses in vault order, program order within each vault:
            oc = ov[miss[ov]]
        va_oc = va_b[oc]
        head_c0 = _changes(va_oc) if len(oc) else np.zeros(0, dtype=bool)

        # Chain B: constant step, pruned where the chain-A path between
        # consecutive same-bank activations is already wider.
        head_b = head_b0.copy()
        if len(ob) > 1:
            dist_b = np.empty(len(ob), dtype=np.int64)
            dist_b[0] = 0
            dist_b[1:] = rank[ob[1:]] - rank[ob[:-1]]
            head_b |= dist_b * min_add >= t_diff_row
        has_b = len(ob) > 1 and bool((~head_b).any())

        # Chain C: layer-dependent step; same-bank links are chain B's,
        # and chain-A-dominated links are pruned the same way.
        head_c = head_c0.copy()
        if len(oc) > 1:
            ba_oc = ba_b[oc]
            step_c = np.where(
                (ba_oc % n_layers)[1:] == (ba_oc % n_layers)[:-1],
                t_diff_bank,
                t_in_vault,
            )
            step_c = np.concatenate(([0], step_c))
            head_c[1:] |= ba_oc[1:] == ba_oc[:-1]
            dist_c = np.empty(len(oc), dtype=np.int64)
            dist_c[0] = 0
            dist_c[1:] = rank[oc[1:]] - rank[oc[:-1]]
            head_c |= dist_c * min_add >= step_c
        has_c = len(oc) > 1 and bool((~head_c).any())

        # --- seed the beat times with every constant lower bound ----------
        a = arr_b.copy() if arr_b is not None else np.zeros(m, dtype=np.int64)
        if in_order:
            if a[0] < self.stream_ready:
                a[0] = self.stream_ready
            if add_b is None:
                c_a = pos_b * t_in_row
            else:
                c_a = np.cumsum(add_b, dtype=np.int64) - add_b
            order_a = None
            seg_a = None
        else:
            firsts = ov[v_starts]
            a[firsts] = np.maximum(a[firsts], vault_ready[vs[v_starts]])
            if add_b is None:
                c_a = rank_sorted * t_in_row
            else:
                steps = add_b[ov]
                c_a = np.cumsum(steps, dtype=np.int64) - steps
            order_a = ov
            seg_a = _seg_ids(head_v)
        if len(ob):
            b_firsts = ob[np.flatnonzero(head_b0)]
            a[b_firsts] = np.maximum(a[b_firsts], bank_next_act[gb_b[b_firsts]])
        if len(oc):
            c_firsts = oc[np.flatnonzero(head_c0)]
            v_first = va_b[c_firsts]
            prev_bank = last_act_bank[v_first]
            gate = np.where(
                (prev_bank % n_layers) == (ba_b[c_firsts] % n_layers),
                t_diff_bank,
                t_in_vault,
            )
            bound = last_act_a[v_first] + gate
            apply = (prev_bank >= 0) & (prev_bank != ba_b[c_firsts])
            a[c_firsts] = np.maximum(a[c_firsts], np.where(apply, bound, NO_ACT))

        # --- relax to the least fixpoint ----------------------------------
        if has_b:
            c_b = (pos_b[: len(ob)]) * t_diff_row
            seg_b = _seg_ids(head_b)
        if has_c:
            c_c = np.cumsum(np.where(head_c, 0, step_c), dtype=np.int64)
            seg_c = _seg_ids(head_c)
        for _ in range(MAX_PASSES):
            changed = _relax(a, order_a, c_a, seg_a)
            if has_b:
                changed |= _relax(a, ob, c_b, seg_b)
            if has_c:
                changed |= _relax(a, oc, c_c, seg_c)
            if not changed:
                break
        else:
            raise VectorConvergenceError(
                f"no fixpoint after {MAX_PASSES} relaxation passes"
                f" (block at request {start})"
            )

        # --- fold the block into the aggregates, carry the state ----------
        x = a + (add_b if add_b is not None else t_in_row)
        if self.x_out is not None:
            self.x_out[start : start + m] = x
        if start == 0:
            self.first_completion = int(x[0])
        self.last_completion = max(self.last_completion, int(x.max()))
        np.maximum.at(self.busy_ps, va_b, x)
        if arr_b is not None:
            lat = x - arr_b
            self.latency_sum += int(lat.sum())
            self.latency_max = max(self.latency_max, int(lat.max()))
        if len(ob):
            b_ends = np.append(np.flatnonzero(head_b0)[1:] - 1, len(ob) - 1)
            bank_next_act[gb_ob[b_ends]] = a[ob[b_ends]] + t_diff_row
        if len(oc):
            c_ends = np.append(np.flatnonzero(head_c0)[1:] - 1, len(oc) - 1)
            last_act_a[va_oc[c_ends]] = a[oc[c_ends]]
            last_act_bank[va_oc[c_ends]] = ba_b[oc[c_ends]]
        if in_order:
            self.stream_ready = int(x[-1])
        else:
            v_ends = np.append(v_starts[1:] - 1, m - 1)
            vault_ready[vs[v_ends]] = x[ov[v_ends]]
        return x

    def _price_span(self, seg: _Segment, lo: int, hi: int) -> np.ndarray:
        """Price requests ``[lo, hi)`` of a classified segment, block by block.

        Returns the completion times of the last block priced.
        """
        x = np.zeros(0, dtype=np.int64)
        for blk in range((hi - lo + BLOCK - 1) // BLOCK):
            b_lo = lo + blk * BLOCK
            x = self._price_block(seg, b_lo, min(b_lo + BLOCK, hi))
        return x

    # ------------------------------------------------------ steady-state path
    def _price_steady(
        self, seg: _Segment, plan: tuple[int, np.ndarray, np.ndarray]
    ) -> None:
        """Price a segment one period at a time, shifting repeated blocks.

        ``plan`` is ``(period, first, last)``: blocks ``first[r]`` through
        ``last[r]`` of ``period`` requests each share one (bank, hit)
        sequence.  Each such run is priced block by block until a block
        moves every state entry it writes by one shift ``Δ``; the rest
        of the run is that block shifted by ``Δ`` per block.  Everything
        between runs is priced as usual.
        """
        period, first, last = plan
        n = len(seg.va)
        pos = 0
        priced = 0
        skipped = 0
        for r in range(len(first)):
            s = int(first[r])
            e = int(last[r])
            self._price_span(seg, pos, s * period)
            priced += s - pos // period
            pos = (e + 1) * period
            t_end = min(e, s + MAX_TRIES)
            for t in range(s, t_end):
                lo = t * period
                hi = lo + period
                before = self._timing_state()
                activations = self.activations
                x = self._price_span(seg, lo, hi)
                priced += 1
                diff = self._timing_state() - before
                if self._is_shift(diff, seg.gbank[lo:hi], seg.hit[lo:hi]):
                    self._repeat(
                        diff, x, seg.va[lo:hi], e - t,
                        self.activations - activations, seg.base + hi,
                    )
                    skipped += e - t
                    break
            else:
                self._price_span(seg, t_end * period, pos)
                priced += e + 1 - t_end
        self._price_span(seg, pos, n)
        priced += (n - pos + period - 1) // period
        if skipped:
            self.steady.append((period, priced, skipped * period))

    def _timing_state(self) -> np.ndarray:
        """The carried state the array scan reads, as one int64 vector.

        Layout: ``bank_next_act``, ``last_act_a``, ``last_act_bank``,
        ``vault_ready``, ``stream_ready``.
        """
        return np.concatenate(
            (
                self.bank_next_act,
                self.last_act_a,
                self.last_act_bank,
                self.vault_ready,
                [self.stream_ready],
            )
        )

    def _is_shift(self, diff: np.ndarray, gb_b: np.ndarray, hit: np.ndarray) -> bool:
        """Whether a block moved every state entry it wrote by one ``Δ > 0``.

        ``diff`` is :meth:`_timing_state` after the block minus before.
        The entries a block writes are exactly those it reads: the banks
        it activates, the vaults it activates on, and the vaults it
        serves (``per_vault``) or the stream (``in_order``).  So when
        they all moved by ``Δ`` and no vault's last activated bank
        changed, an identical next block reads this block's input
        shifted by ``Δ``.
        """
        nb = self.n_banks
        nv = self.n_vaults
        if diff[nb + nv : nb + 2 * nv].any():
            return False
        moved = diff[diff != 0]
        if len(moved) == 0 or moved[0] <= 0 or (moved != moved[0]).any():
            return False
        # Counted with bincount: np.unique imports numpy.ma on first use,
        # about 35 ms in every freshly forked sweep or serve worker.
        activated = np.bincount(gb_b[~hit], minlength=nb).reshape(nv, -1) > 0
        written = np.count_nonzero(activated) + np.count_nonzero(activated.any(1))
        if self.in_order:
            written += 1
        else:
            served = np.bincount(gb_b // self.banks_per_vault, minlength=nv)
            written += np.count_nonzero(served)
        return len(moved) == written

    def _repeat(
        self,
        diff: np.ndarray,
        x: np.ndarray,
        va_b: np.ndarray,
        k: int,
        activations: int,
        start: int,
    ) -> None:
        """Advance the state past ``k`` copies of a block priced as ``x``.

        Copy ``j`` (1-based) completes at ``x + j * Δ``; the shift
        entries of ``diff`` carry the state forward by ``k`` copies.
        """
        nb = self.n_banks
        nv = self.n_vaults
        delta = int(diff[diff != 0][0])
        total = k * delta
        self.bank_next_act += k * diff[:nb]
        self.last_act_a += k * diff[nb : nb + nv]
        self.vault_ready += k * diff[nb + 2 * nv : nb + 3 * nv]
        self.stream_ready += k * int(diff[-1])
        np.maximum.at(self.busy_ps, va_b, x + total)
        self.last_completion = max(self.last_completion, int(x.max()) + total)
        self.activations += k * activations
        if self.x_out is not None:
            shifts = np.arange(1, k + 1, dtype=np.int64) * delta
            self.x_out[start : start + k * len(x)] = (
                x[None, :] + shifts[:, None]
            ).ravel()

    # ------------------------------------------------------- closed-form path
    def price_run(
        self, vault: int, bank: int, row0: int, row_step: int, count: int, base: int
    ) -> None:
        """Price one uniform-bank run as an arithmetic series, O(1) work.

        All ``count`` requests decode to (``vault``, ``bank``) with rows
        ``row0, row0+row_step, ...``.  With a nonzero row step every
        request past the first misses and follows its predecessor by
        ``max(add, t_diff_row)``; with a zero step every request past the
        first hits and follows by ``add`` alone.  Only the first two
        requests consult carried device state -- exactly the requests a
        fresh relaxation block would seed -- so the state handed to the
        next run is bit-identical to the array path's.
        """
        add = self.t_in_row
        miss_step = add if add > self.t_diff_row else self.t_diff_row
        gb = vault * self.banks_per_vault + bank

        ready = self.stream_ready if self.in_order else int(self.vault_ready[vault])
        hit0 = int(self.open_row[gb]) == row0
        a0 = ready
        acts = 0
        last_act = 0
        if not hit0:
            nxt = int(self.bank_next_act[gb])
            if a0 < nxt:
                a0 = nxt
            gated = self._vault_gate(vault, bank)
            if a0 < gated:
                a0 = gated
            acts = 1
            last_act = a0
        if count == 1:
            a1 = a_last = a0
        elif row_step == 0:
            # The remaining requests re-read the now-open row: pure hits.
            a1 = a0 + add
            a_last = a0 + (count - 1) * add
        else:
            # The remaining requests each open a fresh row on this bank.
            if hit0:
                a1 = a0 + add
                nxt = int(self.bank_next_act[gb])
                if a1 < nxt:
                    a1 = nxt
                gated = self._vault_gate(vault, bank)
                if a1 < gated:
                    a1 = gated
            else:
                a1 = a0 + miss_step
            a_last = a1 + (count - 2) * miss_step
            acts += count - 1
            last_act = a_last
        x0 = a0 + add
        x_last = a_last + add

        if self.x_out is not None:
            seg = self.x_out[base : base + count]
            seg[0] = x0
            if count > 1:
                step = add if row_step == 0 else miss_step
                seg[1:] = (a1 + add) + step * np.arange(count - 1, dtype=np.int64)
        if base == 0:
            self.first_completion = x0
        if x_last > self.last_completion:
            self.last_completion = x_last
        if x_last > int(self.busy_ps[vault]):
            self.busy_ps[vault] = x_last
        self.activations += acts

        self.open_row[gb] = row0 + row_step * (count - 1)
        if acts:
            self.bank_next_act[gb] = last_act + self.t_diff_row
            self.last_act_a[vault] = last_act
            self.last_act_bank[vault] = bank
        if self.in_order:
            self.stream_ready = x_last
        else:
            self.vault_ready[vault] = x_last

    def _vault_gate(self, vault: int, bank: int) -> int:
        """Chain-C lower bound for an activation of ``bank`` on ``vault``.

        Same-bank reactivations are governed by the strictly wider
        ``bank_next_act`` bound (chain B), so they gate nothing here --
        mirroring the dropped same-bank links of the array path.
        """
        prev_bank = int(self.last_act_bank[vault])
        if prev_bank < 0 or prev_bank == bank:
            return NO_ACT
        gate = (
            self.t_diff_bank
            if prev_bank % self.n_layers == bank % self.n_layers
            else self.t_in_vault
        )
        return int(self.last_act_a[vault]) + gate

    # -------------------------------------------------------------- finalize
    def finish(
        self, n: int, had_arrivals: bool, record: bool
    ) -> tuple[AccessStats, np.ndarray | None, SteadyState | None]:
        """Convert the integer-ps aggregates into the public ns stats."""
        busy_list = self.busy_ps.tolist()
        busy = {
            vid: ps_to_ns(busy_list[vid])
            for vid in range(self.n_vaults)
            if busy_list[vid] > 0
        }
        stats = AccessStats(
            requests=n,
            bytes_transferred=n * ELEMENT_BYTES,
            elapsed_ns=ps_to_ns(self.last_completion),
            row_activations=self.activations,
            row_hits=n - self.activations,
            per_vault_busy_ns=busy,
            first_response_ns=ps_to_ns(self.first_completion),
            mean_request_latency_ns=(
                mean_latency_ns(self.latency_sum, n) if had_arrivals else 0.0
            ),
            max_request_latency_ns=ps_to_ns(self.latency_max),
        )
        out = ps_array_to_ns(self.x_out) if record and self.x_out is not None else None
        steady = None
        if self.steady:
            segs = np.array(self.steady, dtype=np.int64)
            steady = SteadyState(
                period=int(segs[segs[:, 2].argmax(), 0]),
                blocks_priced=int(segs[:, 1].sum()),
                requests_extrapolated=int(segs[:, 2].sum()),
            )
        return stats, out, steady


def simulate_vector(
    memory: Memory3D,
    trace: TraceArray | CompiledTrace,
    discipline: str,
    faults: FaultState | None = None,
    record: bool = False,
) -> tuple[AccessStats, np.ndarray | None, SteadyState | None]:
    """Price one trace with array scans; exact-engine-equal by construction.

    Mirrors the contract of the exact loop ``Memory3D._simulate_exact``:
    returns the stats plus (when ``record`` is set) the per-request
    completion times in ns, plus what steady-state pricing shifted
    (``None`` when nothing was).  Vault remap and service tail come
    from the same :mod:`repro.memory3d.prepare` helpers the exact loop
    uses.  The caller has already checked :func:`unsupported_reason`.
    Accepts a raw :class:`~repro.trace.request.TraceArray`
    (auto-compiled when long and compressible) or a
    :class:`~repro.trace.compile.CompiledTrace` (priced run by run).
    """
    from repro.trace.compile import compile_trace
    from repro.trace.request import TraceArray

    n = len(trace)
    if n == 0:
        empty = np.zeros(0, dtype=np.float64) if record else None
        return AccessStats(), empty, None

    compiled: Any = None
    raw = None
    if isinstance(trace, TraceArray):
        plain = faults is None and trace.arrival_ns is None
        if plain and n >= AUTO_COMPILE_MIN:
            probe = compile_trace(trace)
            if len(probe.runs) * AUTO_COMPILE_RATIO <= n:
                compiled = probe
                raw = trace.addresses
    else:
        if faults is None and trace.arrival_ns is None:
            compiled = trace
        else:
            # Fault penalties and arrivals are request-granular, so run
            # arithmetic does not apply; the array scan still does.
            trace = trace.expand()

    engine = _Engine(memory, discipline, n, record)
    if compiled is not None:
        _price_compiled(memory, engine, compiled, raw)
        if faults is not None:  # pragma: no cover - guarded above
            raise AssertionError("compiled pricing is fault-free by construction")
        return engine.finish(n, had_arrivals=False, record=record)

    va, ba, rows, gbank = decode(memory, trace.addresses, faults)
    add, min_add = service_tail(n, engine.t_in_row, faults)
    arrivals = (
        ns_array_to_ps(trace.arrival_ns) if trace.arrival_ns is not None else None
    )
    engine.price_arrays(va, ba, rows, gbank, add, min_add, arrivals, base=0)
    return engine.finish(n, had_arrivals=arrivals is not None, record=record)


def _price_compiled(
    memory: Memory3D,
    engine: _Engine,
    compiled: CompiledTrace,
    addresses: np.ndarray | None = None,
) -> None:
    """Walk a compiled trace, pricing runs in closed form where possible.

    Runs whose stride pins every request to one bank go through
    :meth:`_Engine.price_run`; maximal stretches of everything else are
    batched through the array scan, sliced from ``addresses`` (the raw
    trace the runs were compiled from) or else expanded.  Single-request
    runs ride with their neighbours.  The carried state makes the
    interleaving exact.
    """
    from repro.trace.compile import expand_runs

    cfg = memory.config
    mapping = memory.mapping
    runs = compiled.runs
    starts = runs["start"]
    steps = runs["step"]
    counts = runs["count"]

    ends = starts + (counts - 1) * steps
    if min(int(starts.min()), int(ends.min())) < 0 or max(
        int(starts.max()), int(ends.max())
    ) >= cfg.capacity_bytes:
        # Mirrors AddressMapping.decode_array for the expanded trace.
        raise AddressError("address array contains out-of-capacity addresses")

    # A run stays on one bank iff its stride is a whole number of
    # row-sized chunks times the full vault x bank interleave.
    bank_stride = cfg.row_bytes << (
        mapping._vault_bits + mapping._bank_bits
    )
    closed = steps % bank_stride == 0
    # A single-request run prices exactly either way, so it joins the
    # kind of the next multi-request run (the previous one at the end):
    # the head request compile_trace splits off every block visit then
    # stays in its visit's array stretch instead of cutting it in two.
    multi = np.flatnonzero(counts > 1)
    if multi.size:
        nearest = np.searchsorted(multi, np.arange(len(runs)))
        closed = closed[multi[np.minimum(nearest, multi.size - 1)]]

    # Maximal stretches of same-kind runs, walked in order.
    stretch_starts = np.flatnonzero(_changes(closed))
    stretch_ends = np.append(stretch_starts[1:], len(runs))
    bases = np.cumsum(counts, dtype=np.int64) - counts

    starts_l = starts.tolist()
    steps_l = steps.tolist()
    counts_l = counts.tolist()
    bases_l = bases.tolist()
    closed_l = closed.tolist()
    offset_bits = mapping._offset_bits
    vault_bits = mapping._vault_bits
    vault_mask = mapping._vault_mask
    bank_mask = mapping._bank_mask
    row_shift = vault_bits + mapping._bank_bits

    for s_idx in range(len(stretch_starts)):
        s = int(stretch_starts[s_idx])
        e = int(stretch_ends[s_idx])
        if closed_l[s]:
            for r in range(s, e):
                start = starts_l[r]
                count = counts_l[r]
                chunk = start >> offset_bits
                row_step = steps_l[r] // bank_stride if count > 1 else 0
                engine.price_run(
                    vault=chunk & vault_mask,
                    bank=(chunk >> vault_bits) & bank_mask,
                    row0=chunk >> row_shift,
                    row_step=row_step,
                    count=count,
                    base=bases_l[r],
                )
        else:
            if addresses is None:
                stretch, _ = expand_runs(runs[s:e])
            else:
                stretch = addresses[bases_l[s] : bases_l[e - 1] + counts_l[e - 1]]
            va, ba, rows, gbank = decode(memory, stretch, None)
            engine.price_arrays(
                va,
                ba,
                rows,
                gbank,
                add=None,
                min_add=engine.t_in_row,
                arrivals=None,
                base=bases_l[s],
            )

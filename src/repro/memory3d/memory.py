"""The trace-driven 3D memory timing simulator.

:class:`Memory3D` consumes a :class:`~repro.trace.request.TraceArray` and
returns an :class:`~repro.memory3d.stats.AccessStats`.  Two service
disciplines are supported:

``in_order``
    One blocking request stream: request *i+1* is issued only when request
    *i* has completed.  This models the paper's baseline, where the
    column-wise FFT fetches one strided element at a time.

``per_vault``
    Each vault's memory controller drains its own queue as fast as the
    vault's constraints allow; the streams run concurrently and the trace
    finishes when the slowest vault does.  This models the optimized
    architecture, whose controlling unit issues block requests to all
    vaults up front.

Two engines price a trace:

``exact``
    The one per-request array-state loop below -- the reference
    semantics, healthy or faulted.  Its rules are exactly those of
    :class:`~repro.memory3d.vault.VaultTimingModel` (cross-checked in the
    tests); faults, refresh, recorders and every other feature run here.

``vector``
    The numpy batch engine in :mod:`repro.memory3d.vector`: whole-trace
    array scans, typically one to two orders of magnitude faster.  Both
    engines compute in the shared integer-picosecond timebase
    (:mod:`repro.memory3d.timebase`), so on every supported trace the
    vector engine is *stat-for-stat equal* to the exact one -- the same
    doubles, the same counts -- which CI enforces with a corpus-wide
    equivalence gate.  Configurations the scan form cannot express
    exactly (refresh, storm/throttle fault windows, attached event
    recorders) fall back to the exact engine automatically; the
    fallback reason lands in :attr:`Memory3D.last_fallback_reason`.

Every pricing call defaults to ``engine="vector"`` and prices exactly the
trace it is given; ``engine="exact"`` selects the reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SimulationError

# Loaded with this module, not on the first vector run, so forked sweep
# workers and serve children inherit it instead of importing it per fork.
from repro.memory3d import vector
from repro.memory3d.address import AddressMapping
from repro.memory3d.config import Memory3DConfig
from repro.memory3d.prepare import ERR_CORRECTED, NO_ACT, decode, service_tail
from repro.memory3d.stats import AccessStats
from repro.memory3d.timebase import (
    mean_latency_ns,
    ns_array_to_ps,
    ns_to_ps,
    ps_array_to_ns,
    ps_to_ns,
)
from repro.memory3d.vault import VaultTimingModel
from repro.obs.events import (
    EV_ACTIVATE,
    EV_BIT_ERROR,
    EV_REFRESH_STALL,
    EV_ROW_HIT,
    EV_TSV_CONTENTION,
    NULL_RECORDER,
    Recorder,
)
from repro.trace.request import TraceArray
from repro.units import ELEMENT_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> memory3d)
    from repro.faults.plan import FaultPlan, FaultState

#: Disciplines accepted by :meth:`Memory3D.simulate`.
DISCIPLINES = ("in_order", "per_vault")

#: Engines accepted by :meth:`Memory3D.simulate` (see module docs).
ENGINES = ("exact", "vector")


def _check_discipline(discipline: str) -> None:
    if discipline not in DISCIPLINES:
        raise SimulationError(
            f"unknown discipline {discipline!r}; expected one of {DISCIPLINES}"
        )


def _check_trace(trace: Any) -> Any:
    """Validate a trace argument without expanding it.

    Compiled traces are kept compact here: the vector engine prices
    their runs directly, and only the exact engine forces expansion via
    :func:`_as_trace`.
    """
    if isinstance(trace, TraceArray) or callable(getattr(trace, "expand", None)):
        return trace
    raise SimulationError(
        f"expected a TraceArray or CompiledTrace, got {type(trace).__name__}"
    )


def _as_trace(trace: Any) -> TraceArray:
    """Accept a TraceArray or anything expandable into one (CompiledTrace)."""
    if isinstance(trace, TraceArray):
        return trace
    expand = getattr(trace, "expand", None)
    if callable(expand):
        return expand()
    raise SimulationError(
        f"expected a TraceArray or CompiledTrace, got {type(trace).__name__}"
    )


class Memory3D:
    """Facade over the address mapping and the timing engines.

    An optional :class:`~repro.obs.events.Recorder` (e.g. an
    :class:`~repro.obs.events.EventTrace`) receives typed per-request
    events -- ACTIVATE, ROW_HIT, REFRESH_STALL, TSV_CONTENTION, BIT_ERROR
    -- from the exact loop and from :meth:`simulate_reference`.  The
    default :data:`~repro.obs.events.NULL_RECORDER` disables recording;
    the loop then pays a single pointer test per request (the on/off
    ratio is bounded in ``benchmarks/test_speed_ratios.py``).  An enabled recorder forces
    the exact engine (the vector engine aggregates counts instead of
    emitting per-request events).

    Healthy and faulted runs go through the same exact loop; a fault
    plan only adds the per-request work its injectors need.
    """

    def __init__(
        self,
        config: Memory3DConfig | None = None,
        recorder: Recorder | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config or Memory3DConfig()
        self.mapping = AddressMapping(self.config)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Default fault plan applied to every simulation (``None`` = healthy);
        #: the per-call ``fault_plan`` argument overrides it.
        self.fault_plan = fault_plan
        #: :meth:`~repro.faults.plan.FaultState.summary` of the most recent
        #: faulted simulation (``None`` until one runs).
        self.last_fault_summary: dict[str, Any] | None = None
        #: Engine that actually priced the most recent simulation
        #: (``"exact"`` or ``"vector"``; ``None`` until one runs).
        self.last_engine: str | None = None
        #: Why a ``engine="vector"`` request fell back to the exact engine
        #: (``None`` when it did not).
        self.last_fallback_reason: str | None = None
        self._last_steady_state: vector.SteadyState | None = None

    @property
    def last_steady_state(self) -> vector.SteadyState | None:
        """What the vector engine shifted instead of priced in the last run.

        A :class:`~repro.memory3d.vector.SteadyState` (period, blocks
        priced, requests extrapolated) when steady-state pricing skipped
        repeated blocks, ``None`` otherwise.  Reset by every simulation;
        never part of a result.
        """
        return self._last_steady_state

    # ------------------------------------------------------------------ public
    def simulate(
        self,
        trace: TraceArray,
        discipline: str = "in_order",
        fault_plan: FaultPlan | None = None,
        engine: str = "vector",
    ) -> AccessStats:
        """Run a trace and return aggregate statistics.

        Args:
            trace: the element accesses, in program order (a
                :class:`~repro.trace.request.TraceArray` or a
                :class:`~repro.trace.compile.CompiledTrace`, which the
                vector engine prices run by run and the exact engine
                expands first).
            discipline: ``"in_order"`` or ``"per_vault"`` (see module docs).
            fault_plan: a :class:`~repro.faults.plan.FaultPlan` to degrade
                this run with (overrides the constructor plan; ``None``
                falls back to it).  The fault accounting of the run lands
                in :attr:`last_fault_summary`.
            engine: ``"vector"`` (the numpy batch engine; stat-for-stat
                equal on supported traces, with automatic exact fallback
                otherwise -- see :attr:`last_fallback_reason`) or
                ``"exact"`` (the per-request reference loop).
        """
        trace = _check_trace(trace)
        _check_discipline(discipline)
        self._last_steady_state = None
        if len(trace) == 0:
            return AccessStats()
        faults = self._compile_faults(fault_plan, len(trace))
        stats, _ = self._dispatch(trace, discipline, faults, False, engine)
        if faults is not None:
            self.last_fault_summary = faults.summary()
        return stats

    def _compile_faults(
        self, fault_plan: FaultPlan | None, n_requests: int
    ) -> FaultState | None:
        """Compile the effective plan for one run (``None`` when healthy)."""
        plan = fault_plan if fault_plan is not None else self.fault_plan
        if plan is None or not plan.injectors:
            return None
        from repro.faults.plan import compile_plan

        return compile_plan(plan, self.config, n_requests)

    def _dispatch(
        self,
        run: TraceArray,
        discipline: str,
        faults: FaultState | None,
        record: bool,
        engine: str,
    ) -> tuple[AccessStats, np.ndarray | None]:
        """Route one prepared run to the requested engine.

        ``engine="vector"`` falls back to the exact engine when the trace
        or configuration is outside the scan form's support envelope (or
        if the scan fails to converge); the reason is kept in
        :attr:`last_fallback_reason` and the engine that actually ran in
        :attr:`last_engine`.
        """
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.last_fallback_reason = None
        self._last_steady_state = None
        if engine == "vector":
            reason = vector.unsupported_reason(self.config, self.recorder, faults)
            if reason is None:
                try:
                    stats, completions, steady = vector.simulate_vector(
                        self, run, discipline, faults, record
                    )
                except vector.VectorConvergenceError as exc:
                    reason = str(exc)
                else:
                    self.last_engine = "vector"
                    self._last_steady_state = steady
                    return stats, completions
            self.last_fallback_reason = reason
        self.last_engine = "exact"
        return self._simulate_exact(_as_trace(run), discipline, faults, record)

    def simulate_reference(
        self, trace: TraceArray, discipline: str = "in_order"
    ) -> AccessStats:
        """Reference engine built on :class:`VaultTimingModel` (slow, exact).

        Used by the tests to validate the exact loop on healthy runs;
        behaviour is identical by construction of the shared rules.  Feeds
        the same event stream to an attached recorder as the exact loop, so
        the instrumentation is cross-checked the same way the timing is.
        """
        _check_discipline(discipline)
        recorder = self.recorder
        record_event = recorder.record if recorder.enabled else None
        timing = self.config.timing
        vaults = [
            VaultTimingModel(self.config, vid) for vid in range(self.config.vaults)
        ]
        v_ids, banks, rows, _ = self.mapping.decode_array(trace.addresses)
        arrivals = trace.arrival_ns
        if arrivals is not None:
            # The production engines snap arrivals onto the integer-ps
            # grid at their boundary; the reference must gate on the
            # same instants or latencies drift by up to 0.5 ps/request.
            arrivals = ps_array_to_ns(ns_array_to_ps(arrivals))
        stream_ready = 0.0
        per_vault_ready = [0.0] * self.config.vaults
        first_completion = None
        last_completion = 0.0
        latency_sum = 0.0
        latency_max = 0.0
        for i, (vid, bank, row) in enumerate(
            zip(v_ids.tolist(), banks.tolist(), rows.tolist(), strict=True)
        ):
            ready = stream_ready if discipline == "in_order" else per_vault_ready[vid]
            if arrivals is not None and arrivals[i] > ready:
                ready = float(arrivals[i])
            result = vaults[vid].service(bank, row, ready)
            if record_event is not None:
                if result.hit:
                    if result.tsv_wait_ns > 0.0:
                        record_event(
                            EV_TSV_CONTENTION, vid, bank, row, ready,
                            result.tsv_wait_ns,
                        )
                else:
                    record_event(
                        EV_ACTIVATE, vid, bank, row, result.activate_ns,
                        timing.t_diff_row,
                    )
                    if result.tsv_wait_ns > 0.0:
                        record_event(
                            EV_TSV_CONTENTION, vid, bank, row,
                            result.activate_ns, result.tsv_wait_ns,
                        )
                if result.refresh_stall_ns > 0.0:
                    record_event(
                        EV_REFRESH_STALL, vid, bank, row,
                        result.refresh_stall_start_ns, result.refresh_stall_ns,
                    )
                if result.hit:
                    record_event(
                        EV_ROW_HIT, vid, bank, row,
                        result.completion_ns - timing.t_in_row, timing.t_in_row,
                    )
            if arrivals is not None:
                latency = result.completion_ns - float(arrivals[i])
                latency_sum += latency
                latency_max = max(latency_max, latency)
            if discipline == "in_order":
                stream_ready = result.completion_ns
            else:
                per_vault_ready[vid] = result.completion_ns
            if first_completion is None:
                first_completion = result.completion_ns
            last_completion = max(last_completion, result.completion_ns)
        activations = sum(v.activations for v in vaults)
        hits = sum(v.hits for v in vaults)
        busy = {
            v.vault_id: v.tsv_next_ns for v in vaults if v.tsv_next_ns > 0.0
        }
        return AccessStats(
            requests=len(trace),
            bytes_transferred=trace.total_bytes,
            elapsed_ns=last_completion,
            row_activations=activations,
            row_hits=hits,
            per_vault_busy_ns=busy,
            first_response_ns=first_completion or 0.0,
            mean_request_latency_ns=(
                latency_sum / len(trace)
                if arrivals is not None and len(trace)
                else 0.0
            ),
            max_request_latency_ns=latency_max,
        )

    def simulate_tagged(
        self,
        trace: TraceArray,
        tags: np.ndarray,
        discipline: str = "per_vault",
        fault_plan: FaultPlan | None = None,
        engine: str = "vector",
    ) -> dict[int, AccessStats]:
        """Run a merged multi-tenant trace and split the stats per tag.

        Args:
            trace: the interleaved requests of all tenants, in issue order.
            tags: integer tenant id per request.
            engine: ``"vector"`` or ``"exact"`` (same contract as
                :meth:`simulate`).

        Returns:
            Per-tenant :class:`AccessStats`.  Each tenant's
            ``elapsed_ns`` spans its own first-to-last completion (with
            ``first_response_ns`` kept as the absolute first completion),
            so a late-starting tenant's bandwidth reflects what it
            actually extracted while it was active -- not the time other
            tenants ran before it.  A single-request tenant has a zero
            span and therefore reports zero bandwidth (a duration-free
            sample has no rate).  Row-activation/hit counts are
            global (attributed to the shared banks) and reported only on
            the merged key ``-1``.
        """
        trace = _as_trace(trace)
        tags = np.asarray(tags, dtype=np.int64)
        if tags.shape != trace.addresses.shape:
            raise SimulationError("tags shape must match the trace")
        _check_discipline(discipline)
        if len(trace) == 0:
            return {-1: AccessStats()}
        faults = self._compile_faults(fault_plan, len(trace))
        merged, completions = self._dispatch(trace, discipline, faults, True, engine)
        if faults is not None:
            self.last_fault_summary = faults.summary()
        assert completions is not None
        result: dict[int, AccessStats] = {-1: merged}
        for tag in np.unique(tags).tolist():
            mask = tags == tag
            times = completions[mask]
            count = int(mask.sum())
            result[int(tag)] = AccessStats(
                requests=count,
                bytes_transferred=count * ELEMENT_BYTES,
                elapsed_ns=float(times.max() - times.min()),
                row_activations=0,
                row_hits=0,
                first_response_ns=float(times.min()),
            )
        return result

    def bandwidth_timeline(
        self,
        trace: TraceArray,
        discipline: str = "in_order",
        bucket_ns: float = 100.0,
        engine: str = "vector",
    ) -> np.ndarray:
        """Achieved bandwidth (bytes/second) per time bucket.

        Runs the trace and histograms the per-request completion times --
        useful for spotting warm-up transients, refresh dips and phase
        boundaries.  Returns an array whose entry *i* is the average
        bandwidth over ``[i * bucket_ns, (i+1) * bucket_ns)``.
        """
        _check_discipline(discipline)
        if bucket_ns <= 0:
            raise SimulationError(f"bucket_ns must be positive, got {bucket_ns}")
        trace = _check_trace(trace)
        if len(trace) == 0:
            return np.zeros(0)
        _, completions = self._dispatch(trace, discipline, None, True, engine)
        assert completions is not None
        buckets = np.floor_divide(completions, bucket_ns).astype(np.int64)
        counts = np.bincount(buckets)
        return counts * ELEMENT_BYTES / (bucket_ns / 1e9)

    def classify_transitions(self, trace: TraceArray) -> dict[str, int]:
        """Vectorized classification of consecutive-request transitions.

        Returns counts of ``same_row`` / ``diff_row_same_bank`` /
        ``diff_bank_same_vault`` / ``diff_vault`` transitions -- a cheap
        fingerprint of an access pattern that is useful in tests and reports
        without running the timing engines.
        """
        if len(trace) < 2:
            return {
                "same_row": 0,
                "diff_row_same_bank": 0,
                "diff_bank_same_vault": 0,
                "diff_vault": 0,
            }
        vault, bank, row, _ = self.mapping.decode_array(trace.addresses)
        same_vault = vault[1:] == vault[:-1]
        same_bank = same_vault & (bank[1:] == bank[:-1])
        same_row = same_bank & (row[1:] == row[:-1])
        return {
            "same_row": int(same_row.sum()),
            "diff_row_same_bank": int((same_bank & ~same_row).sum()),
            "diff_bank_same_vault": int((same_vault & ~same_bank).sum()),
            "diff_vault": int((~same_vault).sum()),
        }

    # ------------------------------------------------------------ exact loop
    def _simulate_exact(
        self,
        trace: TraceArray,
        discipline: str,
        faults: FaultState | None,
        record: bool = False,
    ) -> tuple[AccessStats, np.ndarray | None]:
        """The per-request exact engine (same rules as VaultTimingModel).

        ``faults is None`` is the healthy device.  Fault work that needs
        no serial state -- the vault remap and the per-request service
        tail (``t_in_row`` plus jitter plus ECC correction) -- comes from
        :mod:`repro.memory3d.prepare`, shared with the vector engine.
        The loop keeps only what is serial: refresh and storm windows,
        thermal-throttle windows and event emission, each behind one
        local test, so a healthy run pays a few pointer tests per request.

        All internal arithmetic is integer picoseconds (see
        :mod:`repro.memory3d.timebase`): associativity of integer
        ``max``/``add`` is what makes the vectorized engine's scans
        bit-identical to this loop.  Nanoseconds are converted at entry
        (timing parameters, arrivals, fault magnitudes) and exit (stats,
        completions).  With ``record=True`` the per-request completion
        times are returned alongside the stats.
        """
        cfg = self.config
        timing = cfg.timing
        t_in_row = ns_to_ps(timing.t_in_row)
        t_in_vault = ns_to_ps(timing.t_in_vault)
        t_diff_bank = ns_to_ps(timing.t_diff_bank)
        t_diff_row = ns_to_ps(timing.t_diff_row)
        n_vaults = cfg.vaults
        in_order = discipline == "in_order"
        recorder = self.recorder
        record_event = recorder.record if recorder.enabled else None
        refresh = cfg.refresh
        if refresh is not None:
            refi = ns_to_ps(refresh.t_refi_ns)
            rfc = ns_to_ps(refresh.t_rfc_ns)
            refresh_offset = [
                ns_to_ps(v * refresh.t_refi_ns / n_vaults) for v in range(n_vaults)
            ]

        n_requests = len(trace)
        vaults_arr, banks_arr, rows_arr, gbank_arr = decode(
            self, trace.addresses, faults
        )
        gbank_list = gbank_arr.tolist()
        vault_list = vaults_arr.tolist()
        bank_list = banks_arr.tolist()
        layer_list = (banks_arr % cfg.layers).tolist()
        row_list = rows_arr.tolist()
        arrival_list = (
            ns_array_to_ps(trace.arrival_ns).tolist()
            if trace.arrival_ns is not None
            else None
        )
        tail, _ = service_tail(n_requests, t_in_row, faults)
        tail_list = tail.tolist() if tail is not None else None

        storms: list[tuple[int, int, list[int], frozenset[int] | None]] | None = None
        throttle: tuple[float, float, float] | None = None
        errors: list[int] | None = None
        correction_ns = 0.0
        if faults is not None:
            storms = [
                (
                    ns_to_ps(period),
                    ns_to_ps(duration),
                    [ns_to_ps(off) for off in offsets],
                    vault_set,
                )
                for period, duration, offsets, vault_set in faults.storms
            ] or None
            throttle = faults.throttle
            errors = faults.error_class
            correction_ns = faults.correction_ns
        if throttle is not None:
            window_ps = ns_to_ps(throttle[0])
            busy_limit_ps = ns_to_ps(throttle[1])
            extra_per_beat = ns_to_ps(timing.t_in_row * throttle[2])
            derated_beat = t_in_row + extra_per_beat
            win_start = [0] * n_vaults
            win_busy = [0] * n_vaults
            throttled = [False] * n_vaults
        # One test per request guards the fault work after the beat.
        faulty = storms is not None or tail_list is not None or throttle is not None

        open_row = [-1] * cfg.total_banks
        bank_next_act = [0] * cfg.total_banks
        tsv_next = [0] * n_vaults
        last_act_time = [NO_ACT] * n_vaults
        last_act_layer = [-1] * n_vaults
        last_act_bank = [-1] * n_vaults
        vault_ready = [0] * n_vaults
        stream_ready = 0

        activations = 0
        first_completion = 0
        last_completion = 0
        completions: list[int] | None = [] if record else None
        latency_sum = 0
        latency_max = 0
        storm_total = 0
        throttle_total = 0
        throttled_windows = 0
        stall_ts = 0
        no_act = NO_ACT

        for i, gbank in enumerate(gbank_list):
            vid = vault_list[i]
            row = row_list[i]
            ready = stream_ready if in_order else vault_ready[vid]
            if arrival_list is not None and arrival_list[i] > ready:
                ready = arrival_list[i]
            tsv_prev = tsv_next[vid]
            stall = 0
            if open_row[gbank] == row:
                hit = True
                beat = tsv_prev if tsv_prev > ready else ready
            else:
                hit = False
                act = bank_next_act[gbank]
                if ready > act:
                    act = ready
                prev_act = last_act_time[vid]
                bank = bank_list[i]
                layer = layer_list[i]
                if prev_act != no_act and last_act_bank[vid] != bank:
                    gap = t_diff_bank if layer == last_act_layer[vid] else t_in_vault
                    gated = prev_act + gap
                    if gated > act:
                        act = gated
                if refresh is not None:
                    stall_ts = act
                    phase = (act - refresh_offset[vid]) % refi
                    if phase < rfc:
                        stall = rfc - phase
                        act += stall
                if storms is not None:
                    for period, duration, offsets, vault_set in storms:
                        if vault_set is not None and vid not in vault_set:
                            continue
                        phase = (act - offsets[vid]) % period
                        if phase < duration:
                            extra = duration - phase
                            if stall == 0:
                                stall_ts = act
                            stall += extra
                            act += extra
                            storm_total += extra
                open_row[gbank] = row
                bank_next_act[gbank] = act + t_diff_row
                last_act_time[vid] = act
                last_act_layer[vid] = layer
                last_act_bank[vid] = bank
                activations += 1
                beat = tsv_prev if tsv_prev > act else act
            # The data beat itself can land in a refresh or storm window.
            if refresh is not None:
                phase = (beat - refresh_offset[vid]) % refi
                if phase < rfc:
                    extra = rfc - phase
                    if stall == 0:
                        stall_ts = beat
                    stall += extra
                    beat += extra

            if faulty:
                if storms is not None:
                    for period, duration, offsets, vault_set in storms:
                        if vault_set is not None and vid not in vault_set:
                            continue
                        phase = (beat - offsets[vid]) % period
                        if phase < duration:
                            extra = duration - phase
                            if stall == 0:
                                stall_ts = beat
                            stall += extra
                            beat += extra
                            storm_total += extra
                completion = beat + (t_in_row if tail_list is None else tail_list[i])
                if throttle is not None:
                    # Close windows that ended before this beat, then
                    # stretch the beat if the vault is currently derated.
                    ws = win_start[vid]
                    if beat >= ws + window_ps:
                        elapsed_windows = (beat - ws) // window_ps
                        hot = win_busy[vid] > busy_limit_ps
                        # Only an *adjacent* hot window carries the derate
                        # over; any idle window in between lets it cool.
                        throttled[vid] = hot and elapsed_windows == 1
                        if hot:
                            throttled_windows += 1
                        win_start[vid] = ws + elapsed_windows * window_ps
                        win_busy[vid] = 0
                    if throttled[vid]:
                        completion += extra_per_beat
                        throttle_total += extra_per_beat
                        win_busy[vid] += derated_beat
                    else:
                        win_busy[vid] += t_in_row
            else:
                completion = beat + t_in_row

            if record_event is not None:
                bank = bank_list[i]
                if hit:
                    if tsv_prev > ready:
                        record_event(
                            EV_TSV_CONTENTION, vid, bank, row, ps_to_ns(ready),
                            ps_to_ns(tsv_prev - ready),
                        )
                else:
                    record_event(
                        EV_ACTIVATE, vid, bank, row, ps_to_ns(act),
                        timing.t_diff_row,
                    )
                    if tsv_prev > act:
                        record_event(
                            EV_TSV_CONTENTION, vid, bank, row, ps_to_ns(act),
                            ps_to_ns(tsv_prev - act),
                        )
                if stall > 0:
                    record_event(
                        EV_REFRESH_STALL, vid, bank, row,
                        ps_to_ns(stall_ts), ps_to_ns(stall),
                    )
                if hit:
                    record_event(
                        EV_ROW_HIT, vid, bank, row, ps_to_ns(beat),
                        ps_to_ns(derated_beat)
                        if throttle is not None and throttled[vid]
                        else timing.t_in_row,
                    )
                if errors is not None and errors[i]:
                    record_event(
                        EV_BIT_ERROR, vid, bank, row, ps_to_ns(beat),
                        correction_ns if errors[i] == ERR_CORRECTED else 0.0,
                    )

            tsv_next[vid] = completion
            if in_order:
                stream_ready = completion
            else:
                vault_ready[vid] = completion
            if i == 0:
                first_completion = completion
            if completion > last_completion:
                last_completion = completion
            if completions is not None:
                completions.append(completion)
            if arrival_list is not None:
                latency = completion - arrival_list[i]
                latency_sum += latency
                if latency > latency_max:
                    latency_max = latency

        if faults is not None:
            faults.storm_stall_ns = ps_to_ns(storm_total)
            faults.throttle_stall_ns = ps_to_ns(throttle_total)
            faults.throttled_windows = throttled_windows
        busy = {
            vid: ps_to_ns(tsv_next[vid])
            for vid in range(n_vaults)
            if tsv_next[vid] > 0
        }
        stats = AccessStats(
            requests=n_requests,
            bytes_transferred=n_requests * ELEMENT_BYTES,
            elapsed_ns=ps_to_ns(last_completion),
            row_activations=activations,
            row_hits=n_requests - activations,
            per_vault_busy_ns=busy,
            first_response_ns=ps_to_ns(first_completion),
            mean_request_latency_ns=(
                mean_latency_ns(latency_sum, n_requests)
                if arrival_list is not None
                else 0.0
            ),
            max_request_latency_ns=ps_to_ns(latency_max),
        )
        recorded = (
            ps_array_to_ns(np.asarray(completions, dtype=np.int64))
            if record
            else None
        )
        return stats, recorded

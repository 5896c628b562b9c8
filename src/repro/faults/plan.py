"""Fault plans: composition, seeding, spec files and run-time compilation.

A :class:`FaultPlan` composes any subset of the shipped injectors under
one seed.  Like sweep grids, plans are pure literals: they load from
JSON or TOML spec files (:func:`load_fault_plan`), round-trip through
:func:`plan_to_dict` / :func:`fault_plan_from_dict`, and two plans with
equal fields are interchangeable.

Determinism contract: :func:`compile_plan` derives every random draw
from ``(plan.seed, injector index)`` sub-streams of NumPy's seeded
generator, so the same plan applied to the same trace produces the
*identical* degraded simulation -- request for request -- on every
machine, process and worker count.  The test suite pins this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.errors import FaultError
from repro.faults.injectors import (
    BitErrorModel,
    Injector,
    LatencyJitter,
    RefreshStorm,
    ThermalThrottle,
    VaultFailure,
    injector_from_dict,
)
from repro.memory3d.config import Memory3DConfig
from repro.memory3d.prepare import ERR_CORRECTED, ERR_UNCORRECTABLE
from repro.obs.logging import get_logger


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded composition of fault injectors.

    ``injectors`` apply simultaneously (a thermally throttled stack can
    also lose a vault); ``seed`` drives every stochastic injector.  An
    empty injector tuple is a valid "healthy" plan that degrades
    nothing -- convenient as a control row in degradation reports.
    """

    injectors: tuple[Injector, ...] = ()
    seed: int = 0
    name: str = "faults"

    def __post_init__(self) -> None:
        object.__setattr__(self, "injectors", tuple(self.injectors))
        if not isinstance(self.seed, int) or self.seed < 0:
            raise FaultError(f"plan seed must be a non-negative int, got {self.seed!r}")
        if not self.name:
            raise FaultError("plan name must be non-empty")
        kinds = [type(inj).__name__ for inj in self.injectors]
        if len(set(kinds)) != len(kinds):
            raise FaultError(f"plan {self.name!r}: duplicate injector kinds {kinds}")

    def as_dict(self) -> dict[str, Any]:
        """JSON-able snapshot (see :func:`plan_to_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "injectors": [inj.as_dict() for inj in self.injectors],
        }


def plan_to_dict(plan: FaultPlan) -> dict[str, Any]:
    """Serialize a plan (inverse of :func:`fault_plan_from_dict`)."""
    return plan.as_dict()


def fault_plan_from_dict(data: Mapping[str, Any]) -> FaultPlan:
    """Build a plan from a spec dict; unknown keys are errors.

    The spec may wrap its keys in a top-level ``faults`` table (the TOML
    idiom) or use them directly.
    """
    if not isinstance(data, Mapping):
        raise FaultError("fault plan spec: expected a mapping")
    if "faults" in data:
        extra = set(data) - {"faults"}
        if extra:
            raise FaultError(
                f"fault plan spec: unknown top-level keys {sorted(extra)}"
            )
        data = data["faults"]
        if not isinstance(data, Mapping):
            raise FaultError("fault plan spec: 'faults' must be a mapping")
    allowed = {"name", "seed", "injectors"}
    unknown = set(data) - allowed
    if unknown:
        raise FaultError(f"fault plan spec: unknown keys {sorted(unknown)}")
    injectors = tuple(
        injector_from_dict(entry) for entry in data.get("injectors", ())
    )
    return FaultPlan(
        injectors=injectors,
        seed=int(data.get("seed", 0)),
        name=str(data.get("name", "faults")),
    )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a fault plan from a ``.json`` or ``.toml`` spec file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FaultError(f"{path}: cannot read fault plan ({exc})") from exc
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise FaultError(f"{path}: invalid TOML ({exc})") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"{path}: invalid JSON ({exc})") from exc
    return fault_plan_from_dict(data)


def builtin_fault_plans(seed: int = 0) -> dict[str, FaultPlan]:
    """The shipped single-injector plans, one per fault class.

    These are the rows of the degradation report and the fault classes
    the regression suite pins: under every one of them the block DDL
    must retain its column-phase bandwidth advantage over row-major.
    Magnitudes are deliberately severe (a quarter of the vaults dead, a
    10% storm duty cycle, ...) so the report probes graceful degradation
    rather than noise.
    """
    return {
        "vault-failure": FaultPlan(
            (VaultFailure(dead_vaults=(0, 5, 10, 15)),),
            seed=seed, name="vault-failure",
        ),
        "latency-jitter": FaultPlan(
            (LatencyJitter(amplitude_ns=2.0),),
            seed=seed, name="latency-jitter",
        ),
        "refresh-storm": FaultPlan(
            (RefreshStorm(period_ns=2000.0, duration_ns=200.0),),
            seed=seed, name="refresh-storm",
        ),
        "thermal-throttle": FaultPlan(
            (ThermalThrottle(threshold=0.7, derate=2.0, window_ns=1000.0),),
            seed=seed, name="thermal-throttle",
        ),
        "bit-errors": FaultPlan(
            (BitErrorModel(rate=2e-3, correction_ns=20.0),),
            seed=seed, name="bit-errors",
        ),
    }


class FaultState:
    """A plan compiled against one device and one trace length.

    Holds the precomputed per-request draws and remap tables the faulted
    timing loop consumes, plus the mutable counters it accumulates.
    Never reuse a state across simulations -- compile one per run.
    """

    __slots__ = (
        "plan", "remap", "remapped_requests", "jitter", "jitter_ns",
        "storms", "storm_stall_ns", "throttle", "throttle_stall_ns",
        "throttled_windows", "error_class", "correction_ns",
        "corrected_errors", "uncorrectable_errors",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: vault id -> serving vault id (identity when no VaultFailure).
        self.remap: list[int] | None = None
        self.remapped_requests = 0
        #: Per-request extra service nanoseconds (LatencyJitter).
        self.jitter: list[float] | None = None
        self.jitter_ns = 0.0
        #: (period, duration, phase_offsets_per_vault, vault_set) tuples.
        self.storms: tuple[tuple[float, float, list[float], frozenset[int] | None], ...] = ()
        self.storm_stall_ns = 0.0
        #: (window_ns, threshold_busy_ns, extra_per_beat_factor) or None.
        self.throttle: tuple[float, float, float] | None = None
        self.throttle_stall_ns = 0.0
        self.throttled_windows = 0
        #: Per-request error class (ERR_* codes) or None.
        self.error_class: list[int] | None = None
        self.correction_ns = 0.0
        self.corrected_errors = 0
        self.uncorrectable_errors = 0

    def summary(self) -> dict[str, Any]:
        """JSON-able accounting of what the faults did to the run."""
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "remapped_requests": self.remapped_requests,
            "jitter_ns": self.jitter_ns,
            "storm_stall_ns": self.storm_stall_ns,
            "throttle_stall_ns": self.throttle_stall_ns,
            "throttled_windows": self.throttled_windows,
            "corrected_errors": self.corrected_errors,
            "uncorrectable_errors": self.uncorrectable_errors,
        }


def compile_plan(
    plan: FaultPlan, config: Memory3DConfig, n_requests: int
) -> FaultState:
    """Compile ``plan`` for one run: seeded draws, remap tables, windows.

    Each stochastic injector draws from its own ``(seed, index)``
    sub-stream, so adding or reordering *other* injectors never perturbs
    its draws and a fixed seed reproduces the identical degraded run.
    """
    state = FaultState(plan)
    get_logger("repro.faults").debug(
        "compiling fault plan",
        plan=plan.name,
        seed=plan.seed,
        injectors=len(plan.injectors),
        requests=n_requests,
    )
    for index, injector in enumerate(plan.injectors):
        rng = np.random.default_rng([plan.seed, index])
        if isinstance(injector, VaultFailure):
            dead = set(injector.dead_vaults)
            out_of_range = [v for v in dead if v >= config.vaults]
            if out_of_range:
                raise FaultError(
                    f"vault-failure: vault ids {sorted(out_of_range)} outside "
                    f"the device's {config.vaults} vaults"
                )
            alive = [v for v in range(config.vaults) if v not in dead]
            if not alive:
                raise FaultError(
                    "vault-failure: cannot kill every vault of the device"
                )
            remap = list(range(config.vaults))
            for i, vault in enumerate(sorted(dead)):
                remap[vault] = alive[i % len(alive)]
            state.remap = remap
        elif isinstance(injector, LatencyJitter):
            state.jitter = rng.uniform(
                0.0, injector.amplitude_ns, n_requests
            ).tolist()
        elif isinstance(injector, RefreshStorm):
            vault_set = (
                None if injector.vaults is None else frozenset(injector.vaults)
            )
            offsets = [
                v * injector.period_ns / config.vaults
                for v in range(config.vaults)
            ]
            state.storms = state.storms + (
                (injector.period_ns, injector.duration_ns, offsets, vault_set),
            )
        elif isinstance(injector, ThermalThrottle):
            state.throttle = (
                injector.window_ns,
                injector.threshold * injector.window_ns,
                injector.derate - 1.0,
            )
        elif isinstance(injector, BitErrorModel):
            draws = rng.random(n_requests)
            severity = rng.random(n_requests)
            classes = np.zeros(n_requests, dtype=np.int8)
            errored = draws < injector.rate
            uncorrectable = errored & (
                severity < injector.uncorrectable_fraction
            )
            classes[errored] = ERR_CORRECTED
            classes[uncorrectable] = ERR_UNCORRECTABLE
            state.error_class = classes.tolist()
            state.correction_ns = injector.correction_ns
        else:  # pragma: no cover - unreachable with the shipped kinds
            raise FaultError(f"unsupported injector {type(injector).__name__}")
    return state

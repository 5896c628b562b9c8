"""One-command reproduction report.

``python -m repro reproduce`` regenerates every paper artifact (Tables 1
and 2 from both the analytic model and the trace-driven simulator, the
block-height and vault-parallelism ablations, the energy comparison, a
per-vault utilization breakdown from the event recorder, and a
degradation table showing how each layout survives the built-in
fault-injection plans) and renders
them as a single markdown document -- the quickest way for a reader to
check this repository against the paper.
"""

from __future__ import annotations

from repro.core import AnalyticModel
from repro.core.config import SystemConfig
from repro.core.simulate import phase_trace
from repro.energy import column_energy_comparison
from repro.faults import degradation_report, render_degradation
from repro.layouts import BlockDDLLayout, RowMajorLayout, optimal_block_geometry
from repro.memory3d import Memory3D
from repro.obs import EventTrace, vault_utilization_table
from repro.obs.export import markdown_table
from repro.sweep import ResultCache, SweepGrid, run_sweep
from repro.viz import bar_chart, percentage

#: Paper reference values for the report's delta columns.
PAPER_TABLE1 = {
    2048: (6.4, 0.01, 32.0, 0.40),
    4096: (3.2, 0.005, 25.6, 0.32),
    8192: (3.2, 0.005, 23.04, 0.288),
}
PAPER_IMPROVEMENT = {2048: 95.1, 4096: 97.0, 8192: 96.6}


def column_vault_tables(
    config: SystemConfig, n: int, max_requests: int
) -> list[tuple[str, str]]:
    """Per-vault utilization of the baseline and DDL column phases.

    ``(caption, markdown table)`` for the row-major walk over ``2 * w``
    columns and for the DDL's block-column streams.  The reproduction
    report and the HTML run report both render these.
    """
    geometry = optimal_block_geometry(config.memory, n)
    layout = BlockDDLLayout(n, n, geometry.width, geometry.height)
    streams = min(config.column_streams, layout.blocks_per_row_band)
    runs = [
        ("Baseline (row-major, in-order): every column access opens a new "
         "row and the stream visits vaults one at a time.",
         phase_trace(RowMajorLayout(n, n), "column-walk", max_requests,
                     units=2 * geometry.width)),
        (f"Optimized (DDL, {streams} per-vault streams): block columns "
         "keep rows open and spread load across vaults.",
         phase_trace(layout, "block-reads", max_requests, streams=streams)),
    ]
    recorder = EventTrace()
    memory = Memory3D(config.memory, recorder=recorder)
    tables = []
    for caption, phase in runs:
        recorder.clear()
        stats = memory.simulate(phase.prefix, phase.discipline)
        table = vault_utilization_table(recorder, stats.elapsed_ns, config.memory)
        tables.append((caption, table))
    return tables


def reproduce_report(
    sizes: tuple[int, ...] = (2048, 4096, 8192),
    max_requests: int = 131_072,
    config: SystemConfig | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> str:
    """Build the full reproduction report as markdown.

    The N-sweep (Table 1) and h-sweep (block-height ablation) sections
    run on the :mod:`repro.sweep` engine: pass ``jobs`` to fan their
    points out across worker processes and ``cache`` to replay
    already-simulated points from disk.
    """
    config = config or SystemConfig()
    model = AnalyticModel(config)
    sections: list[str] = ["# Reproduction report", ""]

    # ------------------------------------------------------------ the device
    sections += ["## Modelled system", "", "```",
                 config.memory.describe(), "```", ""]

    # ------------------------------------------------- Table 1 (the N-sweep)
    sections += ["## Table 1 -- column-wise FFT throughput", ""]
    n_sweep = run_sweep(
        SweepGrid(sizes=sizes, layouts=("row-major", "ddl")),
        config=config, max_requests=max_requests, jobs=jobs, cache=cache,
    )
    rows = []
    for n in sizes:
        base = n_sweep.one(n=n, layout="row-major")
        opt = n_sweep.one(n=n, layout="ddl")
        paper = PAPER_TABLE1.get(n)
        rows.append([
            f"{n}",
            f"{base['throughput_gbitps']:.2f} Gb/s",
            percentage(base["utilization"], 2),
            f"{opt['throughput_gbps']:.2f} GB/s",
            percentage(opt["utilization"]),
            (f"{paper[0]} Gb/s / {paper[2]} GB/s" if paper else "--"),
        ])
    sections.append(markdown_table(
        ["N", "baseline (sim)", "base util", "optimized (sim)",
         "opt util", "paper (base/opt)"],
        rows,
    ))
    sections.append("")

    # -------------------------------------------------------------- Table 2
    sections += ["## Table 2 -- entire 2D FFT application", ""]
    rows = []
    for n in sizes:
        base_sys = model.baseline_system(n)
        opt_sys = model.optimized_system(n)
        improvement = opt_sys.improvement_over(base_sys)
        paper = PAPER_IMPROVEMENT.get(n)
        rows.append([
            f"{n}",
            f"{base_sys.throughput_gbps:.2f} GB/s",
            f"{opt_sys.throughput_gbps:.2f} GB/s",
            f"{improvement:.1f}%",
            (f"{paper}%" if paper else "--"),
            f"{opt_sys.latency_reduction_over(base_sys):.2f}x",
        ])
    sections.append(markdown_table(
        ["N", "baseline", "optimized", "improvement", "paper", "latency cut"],
        rows,
    ))
    sections.append("")

    # ------------------------------------------------ the h-sweep ablation
    n_ab = min(sizes)
    sections += [f"## Ablation -- block height (N={n_ab}, column-at-a-time)", ""]
    geo = optimal_block_geometry(config.memory, n_ab)
    s_elems = config.memory.row_elements
    heights = []
    height = 1
    while height <= s_elems:
        heights.append(height)
        height *= 2
    h_sweep = run_sweep(
        SweepGrid(
            sizes=(n_ab,),
            layouts=("ddl",),
            heights=tuple(heights),
            whole_blocks=False,
        ),
        config=config, max_requests=max_requests, jobs=jobs, cache=cache,
    )
    series = {}
    for h in heights:
        entry = h_sweep.one(n=n_ab, height=h)
        label = f"h={h}" + (" (Eq.1)" if h == geo.height else "")
        series[label] = entry["memory_utilization"] * 100
    sections += ["```", bar_chart(series, unit="% of peak"), "```", ""]

    # --------------------------------------------------------------- energy
    sections += [f"## Energy -- column phase (N={n_ab})", ""]
    energy = column_energy_comparison(config, n_ab, max_requests)
    sections.append(markdown_table(
        ["architecture", "total", "activation share", "activations"],
        [
            [label, f"{e.total_nj / 1e6:.3f} mJ",
             percentage(e.activation_nj / e.total_nj),
             f"{stats.row_activations:,}"]
            for label, e, stats in (
                ("baseline", energy.baseline, energy.baseline_stats),
                ("optimized", energy.ddl, energy.ddl_stats),
            )
        ],
    ))
    sections += [
        "", f"Energy ratio: **{energy.ratio:.1f}x** in favour of the DDL.", ""
    ]

    # ------------------------------------------------- per-vault utilization
    sections += [f"## Per-vault utilization -- column phase (N={n_ab})", ""]
    for caption, table in column_vault_tables(config, n_ab, max_requests):
        sections += [caption, "", table, ""]

    # -------------------------------------------------- fault degradation
    faults = degradation_report(
        config=config, n=n_ab, max_requests=max_requests
    )
    sections += [
        render_degradation(
            faults,
            heading=f"## Degradation under injected faults (N={n_ab})",
        ),
    ]

    return "\n".join(sections)

"""Table 1 of the paper, regenerated.

Builds the four rows — lines of code, execution (host) time, context
switches, transcoding delay — for the three vocoder models. Absolute
values differ from the paper (our substrate is a Python DES kernel and a
synthetic ISS, not SpecC and a DSP56600 farm); the *shape* is what must
hold: model size and simulation cost explode at the implementation
level while the abstract RTOS model stays within a few percent of the
specification model and still predicts the timing behavior.
"""

from dataclasses import dataclass

from repro.analysis import loc as loc_metric
from repro.apps.vocoder.impl import run_implementation
from repro.apps.vocoder.models import run_architecture, run_specification


@dataclass
class Table1Row:
    name: str
    unscheduled: object
    architecture: object
    implementation: object


def model_loc():
    """Lines of code of each executable model, counted over the Python
    packages each model consists of plus (for the implementation) the
    generated assembly."""
    import repro.analysis
    import repro.apps.vocoder.decoder
    import repro.apps.vocoder.dsp
    import repro.apps.vocoder.encoder
    import repro.apps.vocoder.frames
    import repro.apps.vocoder.models
    import repro.channels
    import repro.kernel
    import repro.platform
    import repro.refinement
    import repro.rtos
    import repro.synthesis

    app_modules = [
        repro.apps.vocoder.dsp,
        repro.apps.vocoder.frames,
        repro.apps.vocoder.encoder,
        repro.apps.vocoder.decoder,
        repro.apps.vocoder.models,
    ]
    base = (
        loc_metric.package_loc(repro.kernel)
        + loc_metric.package_loc(repro.channels)
        + loc_metric.package_loc(repro.platform)
        + loc_metric.modules_loc(app_modules)
    )
    arch = (
        base
        + loc_metric.package_loc(repro.rtos)
        + loc_metric.package_loc(repro.refinement)
    )
    from repro.apps.vocoder.impl import build_vocoder_program

    _, program = build_vocoder_program(n_frames=10)
    import repro.apps.vocoder.impl as impl_module

    impl = (
        arch
        + loc_metric.package_loc(repro.synthesis)
        + loc_metric.module_loc(impl_module)
        + program.loc
    )
    return {"unscheduled": base, "architecture": arch, "implementation": impl}


def generate_table1(n_frames=10, seed=2003):
    """Run all three models in this process and return the Table-1 rows.

    ``VocoderRun`` carries live simulator state, which does not pickle
    across workers; the batch/parallel path is ``python -m repro.farm
    table1``, which runs the summary-dict targets in
    :mod:`repro.farm.workloads`.
    """
    run_specification(n_frames=1, seed=seed)  # warm numpy/jit caches
    spec = run_specification(n_frames=n_frames, seed=seed)
    arch = run_architecture(n_frames=n_frames, seed=seed)
    impl = run_implementation(n_frames=n_frames, seed=seed)
    locs = model_loc()
    rows = [
        Table1Row("Lines of Code", locs["unscheduled"], locs["architecture"],
                  locs["implementation"]),
        Table1Row("Execution Time (s)", round(spec.host_seconds, 3),
                  round(arch.host_seconds, 3), round(impl.host_seconds, 3)),
        Table1Row("Context switches", spec.context_switches,
                  arch.context_switches, impl.context_switches),
        Table1Row("Transcoding delay (ms)", round(spec.mean_delay_ms, 2),
                  round(arch.mean_delay_ms, 2), round(impl.mean_delay_ms, 2)),
    ]
    return rows, {"spec": spec, "arch": arch, "impl": impl}


def format_table1(rows):
    """Render the rows like the paper's Table 1."""
    header = f"{'':<24}{'unsched.':>12}{'arch.':>12}{'impl.':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:<24}{row.unscheduled:>12}{row.architecture:>12}"
            f"{row.implementation:>14}"
        )
    return "\n".join(lines)

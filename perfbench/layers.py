"""Per-layer metrics of a traced pass.

The layers are mirs' modules.  Spans wrap the names ``mirs.harness`` calls
(``build_emitters`` lives in the harness but is the propagation stage); the
waveform layer is seen only through ``scenario.apply_clock_drift``, which
``RadarInstance.drifted()`` calls.  ``metrics`` and ``cli`` are thin and get no
layer metric.  A name that no longer exists leaves its metrics unmeasured,
with the reason, instead of failing the run.
"""
from __future__ import annotations

from mirs import harness, scenario, synthesis

from tracing import Tracer

# spans of scene preparation, which happens before a cell's dwells
SETUP_SPANS = ("harness.prepare_scene", "scenario.build_scene",
               "scenario.assign_penetration", "mitigation.apply_technique")
LAYERS = ("scenario", "mitigation", "propagation", "synthesis", "processing",
          "harness")


def _count_paths(counts, result, args, kwargs):
    counts["propagation.paths"] += len(result)
    counts["propagation.unblocked"] += sum(not p.blocked for p in result)


def _count_emitters(counts, result, args, kwargs):
    counts["propagation.emitters"] += len(result)


def _count_detections(counts, result, args, kwargs):
    counts["processing.detections"] += len(result)


def _count_bursts(counts, result, args, kwargs):
    # synthesize_dwell(host_wf, host_times, targets, emitters, ...): one beat
    # burst per (host chirp, overlapping interferer chirp) arrival
    host_wf, host_times, _, emitters = args[:4]
    counts["synthesis.emitters"] += len(emitters)
    arrivals = getattr(synthesis, "interferer_arrivals", None)
    if arrivals is None:
        return
    counts["synthesis.bursts"] += sum(
        len(arrivals(host_wf, host_times, em)[0])
        for em in emitters if em.amplitude > 0.0)


# (module, attribute, span name, counter)
SPANS = (
    (harness, "prepare_scene", "harness.prepare_scene", None),
    (harness, "build_scene", "scenario.build_scene", None),
    (harness, "assign_penetration", "scenario.assign_penetration", None),
    (harness, "apply_technique", "mitigation.apply_technique", None),
    (harness, "simulate_dwell", "harness.simulate_dwell", None),
    (harness, "run_anechoic_analog", "harness.run_anechoic_analog", None),
    (harness, "advance", "scenario.advance", None),
    (harness, "build_emitters", "propagation.build_emitters", _count_emitters),
    (harness, "paths", "propagation.paths", _count_paths),
    (harness, "one_way_gain", "propagation.one_way_gain", None),
    (harness, "synthesize_dwell", "synthesis.synthesize_dwell", _count_bursts),
    (harness, "range_doppler", "processing.range_doppler", None),
    (harness, "noise_floor", "processing.noise_floor", None),
    (harness, "ca_cfar", "processing.ca_cfar", _count_detections),
)


def make_tracer() -> Tracer:
    tracer = Tracer()
    for module, attr, name, count in SPANS:
        tracer.span(module, attr, name, count)
    tracer.counter(scenario, "apply_clock_drift", "waveform.clock_drift_calls")
    if not hasattr(synthesis, "interferer_arrivals"):
        tracer.missing["mirs.synthesis.interferer_arrivals"] = (
            "mirs.synthesis.interferer_arrivals no longer exists")
    return tracer


def layer_metrics(tracer: Tracer, traced, base):
    """(metrics, units, notes) of a traced pass; `base` is the same cells
    untraced."""
    missing = {q.rsplit(".", 1)[1]: why for q, why in tracer.missing.items()}
    spans, counts = tracer.spans, tracer.counts
    dwells = len(traced.dwell_s)
    metrics, units, notes = {}, {}, {}

    def put(name, unit, needs, value):
        units[name] = unit
        gone = [missing[a] for a in needs if a in missing]
        if gone:
            metrics[name] = None
            notes[name] = "unmeasured: " + "; ".join(gone)
        else:
            metrics[name] = value()

    def per_call_ms(span):
        st = spans[span]
        return 1e3 * st.total / st.calls if st.calls else 0.0

    def per_dwell_ms(span, part="total"):
        return 1e3 * getattr(spans[span], part) / dwells

    def per_dwell(key):
        return counts[key] / dwells

    put("scenario.build_scene_ms", "ms/cell", ["build_scene"],
        lambda: per_call_ms("scenario.build_scene"))
    put("scenario.assign_penetration_ms", "ms/cell", ["assign_penetration"],
        lambda: per_call_ms("scenario.assign_penetration"))
    put("mitigation.apply_technique_ms", "ms/cell", ["apply_technique"],
        lambda: per_call_ms("mitigation.apply_technique"))
    put("scenario.advance_ms", "ms/dwell", ["advance"],
        lambda: per_dwell_ms("scenario.advance"))
    put("waveform.clock_drift_calls_per_dwell", "count/dwell",
        ["apply_clock_drift"], lambda: per_dwell("waveform.clock_drift_calls"))
    put("propagation.build_emitters_self_ms", "ms/dwell", ["build_emitters"],
        lambda: per_dwell_ms("propagation.build_emitters", "self"))
    put("propagation.paths_ms", "ms/dwell", ["paths"],
        lambda: per_dwell_ms("propagation.paths"))
    put("propagation.one_way_gain_ms", "ms/dwell", ["one_way_gain"],
        lambda: per_dwell_ms("propagation.one_way_gain"))
    put("propagation.paths_per_dwell", "count/dwell", ["paths"],
        lambda: per_dwell("propagation.paths"))
    put("propagation.unblocked_per_dwell", "count/dwell", ["paths"],
        lambda: per_dwell("propagation.unblocked"))
    put("propagation.emitters_per_dwell", "count/dwell", ["build_emitters"],
        lambda: per_dwell("propagation.emitters"))
    put("propagation.emitter_yield", "ratio", ["paths", "build_emitters"],
        lambda: (counts["propagation.emitters"] / counts["propagation.paths"]
                 if counts["propagation.paths"] else 0.0))
    notes["propagation.emitter_yield"] = "emitters / paths tested"
    put("synthesis.synthesize_dwell_ms", "ms/dwell", ["synthesize_dwell"],
        lambda: per_dwell_ms("synthesis.synthesize_dwell"))
    put("synthesis.bursts_per_dwell", "count/dwell",
        ["synthesize_dwell", "interferer_arrivals"],
        lambda: per_dwell("synthesis.bursts"))
    put("processing.range_doppler_ms", "ms/dwell", ["range_doppler"],
        lambda: per_dwell_ms("processing.range_doppler"))
    put("processing.noise_floor_ms", "ms/dwell", ["noise_floor"],
        lambda: per_dwell_ms("processing.noise_floor"))
    put("processing.ca_cfar_ms", "ms/dwell", ["ca_cfar"],
        lambda: per_dwell_ms("processing.ca_cfar"))
    put("processing.detections_per_dwell", "count/dwell", ["ca_cfar"],
        lambda: per_dwell("processing.detections"))
    put("harness.dwell_self_ms", "ms/dwell",
        ["simulate_dwell", "run_anechoic_analog"],
        lambda: 1e3 * (spans["harness.simulate_dwell"].self
                       + spans["harness.run_anechoic_analog"].self) / dwells)
    notes["harness.dwell_self_ms"] = (
        "dwell time not covered by the stage spans")
    put("harness.cells", "count", ["prepare_scene", "run_anechoic_analog"],
        lambda: (spans["harness.prepare_scene"].calls
                 + spans["harness.run_anechoic_analog"].calls))

    # share of the traced wall time spent in each layer's own code
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, st in spans.items():
        by_layer[span.split(".")[0]] += st.self
    for layer in LAYERS:
        name = f"{layer}.self_frac"
        metrics[name] = by_layer[layer] / traced.wall
        units[name] = "ratio"
    top = max(LAYERS, key=by_layer.get)
    notes[f"{top}.self_frac"] = "largest self time"

    metrics["trace_overhead_frac"] = traced.wall / base.wall - 1.0
    units["trace_overhead_frac"] = "ratio"
    notes["trace_overhead_frac"] = (
        f"traced {traced.wall:.3f} s / untraced {base.wall:.3f} s - 1, "
        f"same {len(base.cells)} cells")
    stages = sum(st.self for s, st in spans.items()
                 if s not in SETUP_SPANS and not s.startswith("harness."))
    notes["harness.dwell_self_ms"] += (
        f"; stages {1e3 * stages / dwells:.3f} ms/dwell, dwell "
        f"{1e3 * sum(traced.dwell_s) / dwells:.3f} ms")
    return metrics, units, notes

"""Span tracing of subthz-chan from outside the package.

``instrument`` wraps the public functions of the layer modules, plus the
``DirectionalPdp`` methods that mark layer boundaries, and rebinds each
wrapper at every import site: ``from .x import y`` binds ``y`` once per
importing module, so patching only the defining module would miss calls.
Spans (name, start, end, parent) stay in memory; ``layer_metrics`` turns
them into the per-layer metrics and ``write_spans`` dumps them.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable

PACKAGE = "subthz_chan"
LAYERS = ("synthesis", "campaign_io", "measurement", "pathloss", "delay", "angular", "xpd", "pipeline", "cli")

#: scalar helpers called per tap; they mark no layer boundary and wrapping
#: them would multiply the tracing overhead
SKIPPED = {"measurement.wrap_deg", "measurement.wrap_signed_deg", "measurement.circular_distance_deg",
           "measurement.db_to_linear", "measurement.linear_to_db"}

#: methods that mark layer boundaries; a target a later version drops is
#: skipped, and its counts then read 0
METHODS = {"measurement": ("DirectionalPdp.__post_init__", "DirectionalPdp.detected")}

#: span around each hook, so hook time is nobody's self time
HOOK_SPAN = "tracing.hook"


def campaign_bytes(manifest_path) -> int:
    """Size of a manifest plus every sweep file it lists."""
    manifest = Path(manifest_path)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    files = {entry["sweeps"] for entry in doc["locations"]}
    return manifest.stat().st_size + sum((manifest.parent / f).stat().st_size for f in files)


def _ingest_counts(args: tuple, campaign) -> dict[str, float]:
    return {
        "bytes": campaign_bytes(args[0]),
        "sweeps": sum(len(loc.sweeps) for loc in campaign.locations),
        "rows": sum(len(pdp.delays_ns) for loc in campaign.locations for pdp in loc.sweeps),
        "vv_locations": sum(1 for loc in campaign.locations if loc.polarization.value == "VV"),
    }


#: counts read off a successful call: (args, result) -> {counter: value}
HOOKS: dict[str, Callable[[tuple, object], dict[str, float]]] = {
    "campaign_io.ingest_campaign": _ingest_counts,
    "campaign_io.write_campaign": lambda args, result: {"bytes": campaign_bytes(result)},
    "delay.synthesize_omni_pdp": lambda args, result: {"vv": float(args[0].polarization.value == "VV")},
    "xpd.collect_xpds": lambda args, result: {"samples": len(result)},
    "pipeline.run_pipeline": lambda args, result: {"bytes": sum(os.path.getsize(p) for p in result)},
}


class Tracer:
    """In-memory span store; one span per wrapped call, nested by call stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: set[int] = set()
        self.extras: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into the package."""
        index = self.open(self.name_id(name))
        try:
            yield index
        except BaseException:
            self.errors.add(index)
            raise
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)
        hook_id = self.name_id(HOOK_SPAN)
        hook = HOOKS.get(name)
        tracer = self

        # opens and closes its span inline: a context manager per call would
        # roughly double the cost of tracing hot methods such as ``detected``
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors.add(index)
                raise
            finally:
                tracer.close(index)
            if hook is not None:
                hook_index = tracer.open(hook_id)
                try:
                    tracer.extras[index] = hook(args, result)
                finally:
                    tracer.close(hook_index)
            return result

        return traced


def _targets(modules: dict[str, object]):
    """(span name, owner, attribute) for every boundary to wrap."""
    for layer in LAYERS:
        module = modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
                and name not in SKIPPED
            ):
                yield name, module, attr
        for dotted in METHODS.get(layer, ()):
            class_name, attr = dotted.split(".")
            owner = getattr(module, class_name, None)
            if owner is not None and attr in vars(owner):
                yield f"{layer}.{dotted}", owner, attr


@contextmanager
def instrument(tracer: Tracer):
    """Route every call of the traced boundaries through ``tracer``.

    Restores the original bindings on exit.
    """
    modules = {name: mod for name, mod in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")}
    restore: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr in _targets(modules):
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original)
            restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _durations(tracer: Tracer):
    n = len(tracer.name)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += duration[i]
    return duration, [d - c for d, c in zip(duration, child)]


def _within(tracer: Tracer, root: str) -> list[bool]:
    """Per span: does it or an ancestor carry the name ``root``."""
    root_id = tracer._ids.get(root, -1)
    inside = []
    for i in range(len(tracer.name)):
        p = tracer.parent[i]
        inside.append(tracer.name[i] == root_id or (p >= 0 and inside[p]))
    return inside


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every recorded span.

    Times and write counts cover the whole traced run; ingest counts cover
    the ``subthz-chan`` commands, not the set-up that builds their inputs.
    The waste ratios of
    ``measurement``, ``pathloss`` and ``delay`` count only calls inside
    ``run_pipeline``, over bases counted there too, so they do not depend
    on what else the workload runs.
    """
    duration, self_time = _durations(tracer)
    in_pipeline = _within(tracer, "pipeline.run_pipeline")
    in_cli = _within(tracer, "cli.main")
    groups: dict[int, list[int]] = {}
    for i, name_id in enumerate(tracer.name):
        groups.setdefault(name_id, []).append(i)

    def spans(name: str, scope: list[bool] | None = None) -> list[int]:
        found = groups.get(tracer._ids.get(name, -1), [])
        return found if scope is None else [i for i in found if scope[i]]

    def total(name: str, values: list[float], scope=None) -> float:
        return sum(values[i] for i in spans(name, scope))

    def count(name: str, scope=None) -> int:
        return len(spans(name, scope))

    def extra(name: str, key: str, scope=None) -> float:
        return sum(tracer.extras.get(i, {}).get(key, 0.0) for i in spans(name, scope))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sweeps = extra("campaign_io.ingest_campaign", "sweeps", in_pipeline)
    vv_locations = extra("campaign_io.ingest_campaign", "vv_locations", in_pipeline)
    ingest_s = total("campaign_io.ingest_campaign", duration, in_cli)
    rows_read = extra("campaign_io.ingest_campaign", "rows", in_cli)
    detected = count("measurement.DirectionalPdp.detected", in_pipeline)
    validations = count("measurement.DirectionalPdp.__post_init__", in_pipeline)
    classify = count("pathloss.classify_directions", in_pipeline)
    commands = count("cli.main")
    return {
        "synthesis.sample_drop_s": total("synthesis.sample_drop", duration),
        "synthesis.render_self_s": total("synthesis.render_campaign", self_time),
        "campaign_io.write_s": total("campaign_io.write_campaign", duration),
        "campaign_io.bytes_written": extra("campaign_io.write_campaign", "bytes"),
        "campaign_io.ingest_s": ingest_s,
        "campaign_io.ingest_calls": count("campaign_io.ingest_campaign", in_cli),
        "campaign_io.rows_read": rows_read,
        "campaign_io.bytes_read": extra("campaign_io.ingest_campaign", "bytes", in_cli),
        "campaign_io.ingest_rows_per_s": ratio(rows_read, ingest_s),
        "measurement.sweeps": sweeps,
        "measurement.detected_calls": detected,
        "measurement.detected_per_sweep": ratio(detected, sweeps),
        "measurement.pdp_validations": validations,
        "measurement.pdp_validations_per_sweep": ratio(validations, sweeps),
        "measurement.threshold_pdp_calls": count("measurement.threshold_pdp", in_pipeline),
        "measurement.detected_s": total("measurement.DirectionalPdp.detected", duration, in_pipeline),
        "pathloss.omni_s": total("pathloss.omni_path_loss", duration),
        "pathloss.directional_s": total("pathloss.directional_path_loss", duration),
        "pathloss.fit_s": total("pathloss.fit_ci", duration) + total("pathloss.fit_cix", duration),
        "pathloss.vv_locations": vv_locations,
        "pathloss.classify_calls": classify,
        "pathloss.classify_per_vv_location": ratio(classify, vv_locations),
        "pathloss.excluded_locations": sum(
            1 for i in spans("pathloss.omni_path_loss", in_pipeline) if i in tracer.errors
        ),
        "delay.summary_s": total("delay.campaign_delay_summary", duration),
        "delay.omni_synth_calls": count("delay.synthesize_omni_pdp", in_pipeline),
        "delay.omni_synth_per_location": ratio(
            extra("delay.synthesize_omni_pdp", "vv", in_pipeline), vv_locations
        ),
        "angular.summary_s": total("angular.campaign_angular_summary", duration),
        "angular.pas_calls": count("angular.power_angular_spectrum"),
        "xpd.collect_s": total("xpd.collect_xpds", duration),
        "xpd.summary_s": total("xpd.xpd_summary", duration),
        "xpd.samples": extra("xpd.collect_xpds", "samples"),
        "pipeline.self_s": total("pipeline.run_pipeline", self_time),
        "pipeline.bytes_written": extra("pipeline.run_pipeline", "bytes"),
        "cli.commands": commands,
        "cli.ingest_per_command": ratio(count("campaign_io.ingest_campaign", in_cli), commands),
        "cli.self_s": total("cli.main", self_time),
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    """One tab-separated line per span, in start order; times in seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = tracer.start[0] if len(tracer.start) else 0.0
    with path.open("w", encoding="utf-8") as out:
        out.write("id\tparent\tname\tstart_s\tend_s\terror\tcounts\n")
        for i in range(len(tracer.name)):
            counts = ",".join(f"{k}={v:g}" for k, v in tracer.extras.get(i, {}).items())
            out.write(
                f"{i}\t{tracer.parent[i]}\t{tracer.names[tracer.name[i]]}\t"
                f"{tracer.start[i] - t0:.9f}\t{tracer.end[i] - t0:.9f}\t{int(i in tracer.errors)}\t{counts}\n"
            )

#!/usr/bin/env python3
"""Smoke-check a SHENJING_METRICS dump (Server::metrics_json written by
obs::MetricsDumper): assert it parses, that the server actually completed
requests, that every model names its compiled schedule (pipeline_ii and
serial_reason), and that at least one model carries per-link NoC
utilization.

Usage:
  check_metrics.py build/metrics_soak.json

Used by CI after the serving soak: a dump that parses but shows zero
completed requests (or no active links) means the telemetry wiring broke
even though the soak itself passed.

Exit codes: 0 pass, 1 dump fails an assertion, 2 bad invocation/unreadable.
"""

import json
import sys


def fail(msg: str, code: int = 1) -> None:
    print(f"check_metrics: {msg}", file=sys.stderr)
    sys.exit(code)


def main() -> int:
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <metrics.json>", 2)
    path = sys.argv[1]
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}", 2)
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(doc, dict):
        fail(f"{path}: expected a JSON object")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("dump has no 'metrics' registry snapshot")
    counters = metrics.get("counters", {})
    completed = counters.get("serve.completed", 0)
    if not isinstance(completed, (int, float)) or completed <= 0:
        fail(f"serve.completed is {completed!r}; expected > 0")

    histograms = metrics.get("histograms", {})
    e2e = [n for n in histograms if n.startswith("serve.e2e_us.")]
    if not e2e:
        fail("no serve.e2e_us.<key> latency histograms in dump")
    recorded = sum(histograms[n].get("count", 0) for n in e2e)
    if recorded <= 0:
        fail("latency histograms present but empty")

    models = doc.get("models")
    if not isinstance(models, list) or not models:
        fail("dump has no 'models' array")
    active_links = 0
    utilized = 0
    for model in models:
        key = model.get("key", "?")
        ii = model.get("pipeline_ii")
        if not isinstance(ii, int) or ii <= 0:
            fail(f"model {key}: pipeline_ii is {ii!r}; expected a positive integer")
        reason = model.get("serial_reason")
        if not isinstance(reason, str) or not reason:
            fail(f"model {key}: serial_reason is {reason!r}; expected an enum name")
        links = model.get("noc", {}).get("links", [])
        active_links += len(links)
        utilized += sum(1 for l in links if l.get("utilization", 0) > 0)
    if active_links == 0:
        fail("no per-link NoC utilization entries in any model")
    if utilized == 0:
        fail("per-link entries present but all report zero utilization")

    print(f"check_metrics: {path} OK — {int(completed)} completed requests, "
          f"{len(e2e)} latency histograms ({int(recorded)} samples), "
          f"{active_links} active links ({utilized} with utilization > 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

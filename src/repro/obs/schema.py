"""Declared trace-event schemas: the contract between emitters and consumers.

Every :meth:`~repro.obs.tracer.ObsTracer.record` call site emits a
``(time_s, source, kind, detail)`` tuple; the observer, the span
stitcher, the attribution pass, and the exporters all index into
``detail`` positionally.  Until now the field layout of each kind lived
in scattered ``# Schema:`` comments next to the emitters — drift (an
emitter growing a field, a consumer reading a stale index) was only
caught when an exporter test happened to cover the changed kind.

This registry is the single declared source of truth.  comb-lint's
OBS001 cross-checks every emitter call site against it, so schema drift
fails at lint time; consumers can import :func:`schema_for` to name
their indices instead of hard-coding them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: kind → positional field names of ``detail`` (a tuple at the emitter).
#: A declared kind whose detail is not a tuple (``kernel`` carries the
#: event's class name, ``q_*`` carry ``None``) names its single payload
#: field.
EVENT_SCHEMAS: Dict[str, Tuple[str, ...]] = {
    # -- engine -----------------------------------------------------------
    "kernel": ("event_class",),
    "schedule_past": ("delay_s",),
    # -- wire / NIC (one shape, so span stitching joins on position) ------
    "packet_tx": ("packet_kind", "msg_id", "packet_index"),
    "wire_tx": ("packet_kind", "msg_id", "packet_index"),
    "wire_drop": ("packet_kind", "msg_id", "packet_index"),
    "wire_rx": ("packet_kind", "msg_id", "packet_index"),
    "nic_rx": ("packet_kind", "msg_id", "packet_index"),
    # -- transport protocol ----------------------------------------------
    "rts_rx": ("msg_id",),
    "get_issued": ("msg_id",),
    "gm_tokens": ("node", "tokens_left", "tokens_max"),
    "gm_token_wait": ("msg_id", "dest_node"),
    # -- MPI request lifecycle -------------------------------------------
    "req_post": ("req_id", "kind", "peer", "tag", "nbytes"),
    "req_complete": ("req_id", "kind"),
    "msg_bind": ("req_id", "msg_id", "kind"),
    # -- method drivers ---------------------------------------------------
    "pww_phase": ("batch_index", "cycle_start_s", "post_s", "work_s",
                  "wait_s"),
    "poll": ("completed",),
    "poll_empty": ("empty_cycles",),
    "poll_window": ("t_start_s", "elapsed_s", "work_total_s", "polls",
                    "empty_poll_s"),
    # -- executor point markers ------------------------------------------
    "point_start": ("kind", "system", "msg_bytes", "interval_iters",
                    "warmup_windows"),
    "point_end": ("kind",),
    "point_cached": ("kind",),
}

#: Kind-name prefixes emitted with dynamically composed kinds: the fault
#: injector (``fault_<name>``) and the queue-depth observers (``q_<op>``
#: / ``q_unex_<op>``).  Call sites under these prefixes carry free-form
#: details and are exempt from positional field checking.
WILDCARD_KIND_PREFIXES: Tuple[str, ...] = ("fault_", "q_")


def schema_for(kind: str) -> Optional[Tuple[str, ...]]:
    """Declared field names of ``kind``'s detail tuple, if declared."""
    return EVENT_SCHEMAS.get(kind)


def is_known_kind(kind: str) -> bool:
    """Is ``kind`` declared, exactly or under a wildcard prefix?"""
    return kind in EVENT_SCHEMAS or kind.startswith(WILDCARD_KIND_PREFIXES)


__all__ = [
    "EVENT_SCHEMAS",
    "WILDCARD_KIND_PREFIXES",
    "schema_for",
    "is_known_kind",
]

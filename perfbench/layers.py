"""Per-layer metrics and the tunnel_steady split, computed from spans.

Each per-layer metric is measured on the workload whose end-to-end number
it is expected to move (its "home"), so every traced run reports all of
them whatever workload it was started for:

- tunnel_steady: the sidecar, envelope_http, envelope (pack/unpack),
  X25519 and identity-lookup costs of a steady tunneled step;
- handshake_churn: handshake, credential, registry and association-store
  costs, and the resolver hit ratio;
- tunnel_bulk: wire framing and AEAD bytes, where per-byte cost dominates;
- setup: IPMF and issuance costs of `launch_topology`;
- the traced workload itself: mock NF requests per pass and the tracing
  overhead.

`_ms` metrics are mean milliseconds per call unless the name says
otherwise; residuals (`client_hop_ms`, `envelope_http.hop_ms`,
`vdr_http.hop_ms`) are per step or per call differences between an
enclosing time and the spans measured inside it.
"""

from __future__ import annotations

from spans import SpanView

STEADY, CHURN, BULK = "tunnel_steady", "handshake_churn", "tunnel_bulk"
HOMES = (STEADY, CHURN, BULK)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def steady_split(view: SpanView, step_s: float, steps: int) -> list[tuple[str, float, bool]]:
    """(row, ms per step, is residual) for one tunneled step, in path order.

    The rows add up to the measured step time: the two hops are whatever
    the enclosing span (the client's step, the consumer's envelope request)
    spent outside the spans measured inside it.
    """
    under_request = view.under("envelope_http.request")

    def client_side(name):
        return view.total(name, under_request)

    def producer_side(name):
        return view.total(name, view.top_level)

    intercept = view.total("sidecar.intercept")
    inbound = view.total("sidecar.inbound")
    authz = view.total("sidecar.authz")
    local_nf = view.total("sidecar.local_nf_hop")
    consumer_out = [
        ("pack request (consumer)", client_side("envelope.pack")),
        ("encode_wire request (consumer)", client_side("envelope.encode_wire")),
    ]
    producer = [
        ("decode_wire request (producer)", producer_side("envelope.decode_wire")),
        ("unpack request (producer)", producer_side("envelope.unpack")),
        ("producer authz", authz),
        ("local-NF hop", local_nf),
        ("inbound self (producer)", inbound - authz - local_nf),
        ("sender resolve for reply (producer)", producer_side("identity.resolve")),
        ("pack reply (producer)", producer_side("envelope.pack")),
        ("encode_wire reply (producer)", producer_side("envelope.encode_wire")),
    ]
    consumer_in = [
        ("decode_wire reply (consumer)", client_side("envelope.decode_wire")),
        ("unpack reply (consumer)", client_side("envelope.unpack")),
    ]
    measured = sum(value for _, value in consumer_out + producer + consumer_in)
    hop = view.total("envelope_http.request") - measured
    intercept_self = view.self_total("sidecar.intercept",
                                     {"envelope_http.request", "protocols.run_handshake"})
    rows = (
        [("client->intercept hop", step_s - intercept, True),
         ("intercept self (consumer)", intercept_self, False)]
        + [(name, value, False) for name, value in consumer_out]
        + [("sidecar->sidecar hop", hop, True)]
        + [(name, value, False) for name, value in producer + consumer_in]
    )
    return [(name, 1e3 * value / steps, residual) for name, value, residual in rows]


def per_layer_metrics(spans: list, homes: dict, workload_passes: list,
                      overhead_pct: float) -> tuple[dict[str, float], list]:
    """Every per-layer metric, and the tunnel_steady split.

    `homes` maps each home workload to its traced passes; `workload_passes`
    are all passes of the workload the run was started for.
    """
    steady, churn, bulk = (SpanView(spans, name) for name in HOMES)
    setup = SpanView(spans, "setup")

    def steps_of(name):
        return sum(p.completed for p in homes[name])

    def step_time(name):
        return sum(sum(p.latencies()) for p in homes[name])

    s_steps, b_steps = steps_of(STEADY), steps_of(BULK)
    c_passes = len(homes[CHURN])
    handshakes = churn.count("protocols.run_handshake")
    split = steady_split(steady, step_time(STEADY), s_steps)
    split_ms = {name: ms for name, ms, _ in split}
    step_ms = sum(split_ms.values())
    residual_ms = sum(ms for _, ms, residual in split if residual)

    vdr_client = (churn.total("vdr_http.resolve_did") + churn.total("vdr_http.check_status"))
    vdr_server = (churn.total("vdr.resolve_did", churn.top_level)
                  + churn.total("vdr.check_status", churn.top_level))
    vdr_calls = churn.count("vdr_http.resolve_did") + churn.count("vdr_http.check_status")
    resolves = churn.of("identity.resolve")
    misses = sum(1 for i in resolves if churn.covered(i, {"vdr_http.resolve_did"}) > 0)
    vp_self = churn.self_total("credentials.verify_presentation",
                               {"identity.resolve", "vdr_http.check_status"})
    aead = ("crypto.aead_encrypt", "crypto.aead_decrypt")
    aead_calls = sum(bulk.count(n) for n in aead)
    wire_bytes = bulk.size("envelope.encode_wire")

    metrics = {
        "sidecar.client_hop_ms": split_ms["client->intercept hop"],
        "sidecar.intercept_ms": steady.mean_ms("sidecar.intercept"),
        "sidecar.intercept_self_ms": _ratio(split_ms["intercept self (consumer)"] * s_steps,
                                            steady.count("sidecar.intercept")),
        "sidecar.inbound_ms": steady.mean_ms("sidecar.inbound"),
        "sidecar.local_nf_hop_ms": steady.mean_ms("sidecar.local_nf_hop"),
        "sidecar.authz_ms": steady.mean_ms("sidecar.authz"),
        "sidecar.assoc_append_ms": churn.mean_ms("sidecar.assoc_append"),
        "sidecar.assoc_append_calls": _ratio(churn.count("sidecar.assoc_append"), c_passes),
        "sidecar.handshakes_per_pass": _ratio(handshakes, c_passes),
        "envelope_http.request_ms": steady.mean_ms("envelope_http.request"),
        "envelope_http.hop_ms": split_ms["sidecar->sidecar hop"],
        "envelope_http.errors": sum(v.count("envelope_http.error") for v in (steady, churn, bulk)),
        "envelope.pack_ms": steady.mean_ms("envelope.pack"),
        "envelope.unpack_ms": steady.mean_ms("envelope.unpack"),
        "envelope.calls_per_step": _ratio(
            steady.count("envelope.pack") + steady.count("envelope.unpack"), s_steps),
        "envelope.encode_wire_ms": bulk.mean_ms("envelope.encode_wire"),
        "envelope.decode_wire_ms": bulk.mean_ms("envelope.decode_wire"),
        "envelope.wire_bytes_per_step": _ratio(wire_bytes, b_steps),
        "envelope.wire_expansion": _ratio(wire_bytes, sum(p.payload_bytes for p in homes[BULK])),
        "crypto.x25519_calls_per_step": _ratio(steady.count("crypto.x25519"), s_steps),
        "crypto.x25519_ms": steady.mean_ms("crypto.x25519"),
        "crypto.aead_ms": _ratio(1e3 * sum(bulk.total(n) for n in aead), aead_calls),
        "crypto.aead_bytes": _ratio(sum(bulk.size(n) for n in aead), b_steps),
        "crypto.ed25519_verify_calls_per_handshake": _ratio(
            churn.count("crypto.ed25519_verify"), handshakes),
        "crypto.ed25519_verify_ms": churn.mean_ms("crypto.ed25519_verify"),
        "crypto.ed25519_sign_calls_per_handshake": _ratio(
            churn.count("crypto.ed25519_sign"), handshakes),
        "credentials.verify_presentation_ms": churn.mean_ms("credentials.verify_presentation"),
        "credentials.verify_presentation_self_ms": _ratio(
            1e3 * vp_self, churn.count("credentials.verify_presentation")),
        "credentials.verify_delegation_chain_ms":
            churn.mean_ms("credentials.verify_delegation_chain"),
        "credentials.build_presentation_ms": churn.mean_ms("credentials.build_presentation"),
        "protocols.run_handshake_ms": churn.mean_ms("protocols.run_handshake"),
        "protocols.responder_ms": churn.mean_ms("protocols.responder"),
        "protocols.handshake_exchanges": _ratio(
            churn.count("envelope_http.request", churn.under("protocols.run_handshake")),
            handshakes),
        "protocols.run_issuance_ms": setup.mean_ms("protocols.run_issuance"),
        "identity.resolve_calls_per_step": _ratio(steady.count("identity.resolve"), s_steps),
        "identity.resolve_ms": steady.mean_ms("identity.resolve"),
        "identity.resolve_hit_ratio": _ratio(len(resolves) - misses, len(resolves)),
        "vdr_http.resolve_did_calls": _ratio(churn.count("vdr_http.resolve_did"), c_passes),
        "vdr_http.resolve_did_ms": churn.mean_ms("vdr_http.resolve_did"),
        "vdr_http.check_status_calls_per_handshake": _ratio(
            churn.count("vdr_http.check_status"), handshakes),
        "vdr_http.check_status_ms": churn.mean_ms("vdr_http.check_status"),
        "vdr.check_status_ms": churn.mean_ms("vdr.check_status", churn.top_level),
        "vdr_http.hop_ms": _ratio(1e3 * (vdr_client - vdr_server), vdr_calls),
        "ipmf.handle_ms": setup.mean_ms("ipmf.handle"),
        "ipmf.handle_calls": setup.count("ipmf.handle"),
        "mocknf.requests_per_pass": _ratio(sum(p.nf_requests for p in workload_passes),
                                           len(workload_passes)),
        "trace.coverage": _ratio(step_ms - residual_ms, step_ms),
        "trace.overhead_pct": overhead_pct,
    }
    return metrics, split

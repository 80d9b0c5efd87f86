"""In-memory spans around the calls into each sbacl layer.

The benchmark does not change the program to trace it. `Tracer.install`
replaces each declared binding (a module attribute or a class attribute,
at the place the caller actually looks it up) with a wrapper that records
a span while `Tracer.enabled` is set, and `uninstall` puts the originals
back. Bindings that a server captures when it starts (the dispatch method
handed to `EnvelopeHttpServer`) are only seen if the wrappers are installed
before the topology is launched, so the traced run installs first.

A span is (name, start, end, parent, thread_id, size, segment): `parent`
is the index of the enclosing span in the same OS thread, `thread_id` the
protocol message thread the call belongs to (inherited from the parent when
the call carries no message), `size` a byte count where one applies, and
`segment` the label of the benchmark phase that was running.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass

from sbacl import credentials, crypto, envelope_http, harness, identity, ipmf, protocols
from sbacl import sidecar, vdr, vdr_http

NAME, START, END, PARENT, THREAD_ID, SIZE, SEGMENT = range(7)


def _len_arg(index):
    return lambda args, result: len(args[index])


def _len_result(args, result):
    return len(result)


@dataclass(frozen=True)
class Binding:
    """One wrapped call site, and the workloads on which it must fire.

    `fires` names the benchmark phases (workloads, or "setup") where a
    seed-state program calls this binding on every pass; on every other
    workload the prediction is zero calls.
    """

    span: str
    owner: object
    attr: str
    fires: frozenset
    msg_arg: int | None = None  # position of the ProtocolMessage argument
    msg_result: bool = False  # the message is the first item of the result
    size: object = None  # (args, result) -> byte count


TUNNEL = frozenset({"tunnel_steady", "handshake_churn", "tunnel_bulk"})
CHURN = frozenset({"handshake_churn"})
SETUP = frozenset({"setup"})
NOWHERE = frozenset()

BINDINGS = (
    Binding("sidecar.intercept", sidecar.Sidecar, "intercept", TUNNEL),
    Binding("sidecar.inbound", sidecar.Sidecar, "handle_inbound", TUNNEL, msg_arg=1),
    Binding("sidecar.authz", sidecar, "evaluate_authorization", TUNNEL),
    Binding("sidecar.assoc_append", sidecar.AssociationStore, "append", CHURN),
    Binding("protocols.run_handshake", sidecar, "run_handshake", CHURN),
    Binding("protocols.responder", protocols.HandshakeResponder, "handle", CHURN, msg_arg=1),
    Binding("protocols.run_issuance", harness, "run_issuance", SETUP),
    Binding("envelope_http.request", envelope_http.EnvelopeChannel, "request",
            TUNNEL | SETUP, msg_arg=1),
    Binding("envelope_http.error", envelope_http.EnvelopeChannel, "_raise_for_error", NOWHERE),
    Binding("envelope.pack", envelope_http, "pack", TUNNEL | SETUP, msg_arg=0),
    Binding("envelope.unpack", envelope_http, "unpack", TUNNEL | SETUP, msg_result=True),
    Binding("envelope.encode_wire", envelope_http, "encode_wire", TUNNEL | SETUP,
            size=_len_result),
    Binding("envelope.decode_wire", envelope_http, "decode_wire", TUNNEL | SETUP,
            size=_len_arg(0)),
    Binding("crypto.x25519", crypto, "x25519_shared_secret", TUNNEL | SETUP),
    Binding("crypto.aead_encrypt", crypto, "xchacha_encrypt", TUNNEL | SETUP,
            size=_len_arg(2)),
    Binding("crypto.aead_decrypt", crypto, "xchacha_decrypt", TUNNEL | SETUP,
            size=_len_arg(2)),
    Binding("crypto.ed25519_verify", crypto, "ed25519_verify", CHURN | SETUP),
    Binding("crypto.ed25519_sign", crypto, "ed25519_sign", CHURN | SETUP),
    Binding("credentials.verify_presentation", protocols, "verify_presentation", CHURN),
    Binding("credentials.verify_delegation_chain", credentials, "verify_delegation_chain",
            CHURN | SETUP),
    Binding("credentials.build_presentation", sidecar, "build_presentation", CHURN),
    Binding("identity.resolve", identity.Resolver, "resolve", TUNNEL | SETUP),
    Binding("vdr_http.resolve_did", vdr_http.RegistryHttpClient, "resolve_did", CHURN | SETUP),
    Binding("vdr_http.check_status", vdr_http.RegistryHttpClient, "check_status",
            CHURN | SETUP),
    Binding("vdr.resolve_did", vdr.Registry, "resolve_did", CHURN | SETUP),
    Binding("vdr.check_status", vdr.Registry, "check_status", CHURN | SETUP),
    Binding("ipmf.handle", ipmf.Ipmf, "handle", SETUP, msg_arg=1),
)

# Wrapped per sidecar instance once the topology is up: the producer's
# session towards its own NF.
LOCAL_NF_HOP = "sidecar.local_nf_hop"
INSTANCE_FIRES = {LOCAL_NF_HOP: TUNNEL}


def expected_firing(phase: str) -> tuple[set[str], set[str]]:
    """Span names that must fire, and that must not, on one phase."""
    declared = {b.span: b.fires for b in BINDINGS} | INSTANCE_FIRES
    fire = {name for name, phases in declared.items() if phase in phases}
    return fire, set(declared) - fire


class Tracer:
    def __init__(self):
        self.enabled = False
        self.segment = ""
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._instances: list[tuple[object, str]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, segment: str) -> None:
        """Record a span timed by the caller, such as one benchmark step."""
        with self._lock:
            self.spans.append((name, start, end, None, None, None, segment))

    def _wrap(self, name: str, fn, msg_arg=None, msg_result=False, size=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent, tid = stack[-1] if stack else (None, None)
            if msg_arg is not None:
                tid = args[msg_arg].thread_id
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append((index, tid))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if msg_result and result is not None:
                    tid = result[0].thread_id
                nbytes = size(args, result) if size is not None and result is not None else None
                tracer.spans[index] = (name, start, end, parent, tid, nbytes, tracer.segment)

        return traced

    # -- installing wrappers -------------------------------------------------------

    def install(self) -> None:
        """Wrap every declared binding; a binding that is gone raises here."""
        for binding in BINDINGS:
            original = vars(binding.owner).get(binding.attr)
            if original is None:
                self.uninstall()
                raise AttributeError(f"{binding.owner!r} no longer binds {binding.attr!r}")
            static = isinstance(original, staticmethod)
            wrapped = self._wrap(binding.span, original.__func__ if static else original,
                                 binding.msg_arg, binding.msg_result, binding.size)
            if static:
                wrapped = staticmethod(wrapped)
            self._originals.append((binding.owner, binding.attr, original))
            setattr(binding.owner, binding.attr, wrapped)

    def install_local_nf_hops(self, topology) -> None:
        for handle in topology.nfs.values():
            session = handle.sidecar._local_http
            session.request = self._wrap(LOCAL_NF_HOP, session.request)
            self._instances.append((session, "request"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        for obj, attr in self._instances:
            vars(obj).pop(attr, None)
        self._originals.clear()
        self._instances.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "thread_id", "size", "segment")
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps({"index": index, **dict(zip(keys, span))}) + "\n")


class SpanView:
    """Sums over the spans recorded in one segment."""

    def __init__(self, spans: list, segment: str):
        self.spans = spans
        self.mine = [i for i, s in enumerate(spans) if s is not None and s[SEGMENT] == segment]
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for i in self.mine:
            parent = spans[i][PARENT]
            if parent is not None:
                self.children.setdefault(parent, []).append(i)
            self.by_name.setdefault(spans[i][NAME], []).append(i)

    def of(self, name: str, where=None) -> list[int]:
        return [i for i in self.by_name.get(name, ()) if where is None or where(i)]

    def count(self, name: str, where=None) -> int:
        return len(self.of(name, where))

    def dur(self, index: int) -> float:
        return self.spans[index][END] - self.spans[index][START]

    def total(self, name: str, where=None) -> float:
        return sum(self.dur(i) for i in self.of(name, where))

    def size(self, name: str) -> int:
        return sum(self.spans[i][SIZE] or 0 for i in self.of(name))

    def mean_ms(self, name: str, where=None) -> float:
        spans = self.of(name, where)
        return 1e3 * sum(self.dur(i) for i in spans) / len(spans) if spans else 0.0

    def covered(self, index: int, names: set[str]) -> float:
        """Time inside `index` spent in descendants named in `names`,
        counting each outermost such descendant once."""
        total = 0.0
        for child in self.children.get(index, ()):
            if self.spans[child][NAME] in names:
                total += self.dur(child)
            else:
                total += self.covered(child, names)
        return total

    def self_total(self, name: str, minus: set[str]) -> float:
        return sum(self.dur(i) - self.covered(i, minus) for i in self.of(name))

    def under(self, ancestor: str):
        """Predicate: the span has an ancestor named `ancestor`."""
        def test(index: int) -> bool:
            parent = self.spans[index][PARENT]
            while parent is not None:
                if self.spans[parent][NAME] == ancestor:
                    return True
                parent = self.spans[parent][PARENT]
            return False
        return test

    def top_level(self, index: int) -> bool:
        return self.spans[index][PARENT] is None

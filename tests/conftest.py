"""Shared fixtures: paper listings, small models, compilers, servers."""

from __future__ import annotations

import faulthandler
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import VerilogAnnealerCompiler
from repro.ising.model import IsingModel

# ----------------------------------------------------------------------
# The paper's Verilog listings, verbatim.
# ----------------------------------------------------------------------
FIGURE_2A = """
module circuit (s, a, b, c);
    input s, a, b;
    output [1:0] c;
    assign c = s ? a+b : a-b;
endmodule
"""

LISTING_3_COUNTER = """
module count (clk, inc, reset, out);
    input clk;
    input inc;
    input reset;
    output [5:0] out;
    reg [5:0] var;
    always @(posedge clk)
      if (reset)
        var <= 0;
      else
        if (inc)
          var <= var + 1;
    assign out = var;
endmodule
"""

LISTING_5_CIRCSAT = """
module circsat (a, b, c, y);
    input a, b, c;
    output y;
    wire [1:10] x;
    assign x[1] = a;
    assign x[2] = b;
    assign x[3] = c;
    assign x[4] = ~x[3];
    assign x[5] = x[1] | x[2];
    assign x[6] = ~x[4];
    assign x[7] = x[1] & x[2] & x[4];
    assign x[8] = x[5] | x[6];
    assign x[9] = x[6] | x[7];
    assign x[10] = x[8] & x[9] & x[7];
    assign y = x[10];
endmodule
"""

LISTING_6_MULT = """
module mult (A, B, C);
   input [3:0] A;
   input [3:0] B;
   output[7:0] C;
   assign C = A * B;
endmodule
"""

LISTING_7_AUSTRALIA = """
module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
   input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
   output valid;
   assign valid = WA != NT && WA != SA && NT != SA && NT != QLD
       && SA != QLD && SA != NSW && SA != VIC && QLD != NSW
       && NSW != VIC && NSW != ACT;
endmodule
"""

LISTING_8_MINIZINC = """
var 1..4: NSW;
var 1..4: QLD;
var 1..4: SA;
var 1..4: VIC;
var 1..4: WA;
var 1..4: NT;
var 1..4: ACT;
constraint WA != NT;
constraint WA != SA;
constraint NT != SA;
constraint NT != QLD;
constraint SA != QLD;
constraint SA != NSW;
constraint SA != VIC;
constraint QLD != NSW;
constraint NSW != VIC;
constraint NSW != ACT;
solve satisfy;
"""

AUSTRALIA_REGIONS = ["NSW", "QLD", "SA", "VIC", "WA", "NT", "ACT"]
AUSTRALIA_ADJACENT = [
    ("WA", "NT"), ("WA", "SA"), ("NT", "SA"), ("NT", "QLD"),
    ("SA", "QLD"), ("SA", "NSW"), ("SA", "VIC"), ("QLD", "NSW"),
    ("NSW", "VIC"), ("NSW", "ACT"),
]


@pytest.fixture(scope="session")
def compiler() -> VerilogAnnealerCompiler:
    """A session-wide compiler with a fixed seed."""
    return VerilogAnnealerCompiler(seed=2019)


@pytest.fixture(scope="session")
def circsat_program(compiler):
    return compiler.compile(LISTING_5_CIRCSAT)


@pytest.fixture(scope="session")
def figure2_program(compiler):
    return compiler.compile(FIGURE_2A)


def require_native_tier() -> None:
    """Skip the calling test unless the native Metropolis tier loads here.

    ``tests/test_kernels.py::test_native_tier_loads_when_cc_is_present``
    fails, rather than skips, when a compiler exists but the tier did
    not load, so a host with ``cc`` cannot skip these silently.
    """
    from repro.solvers import kernels

    reason = kernels.native_unavailable_reason()
    if reason is not None:
        pytest.skip(f"native tier unavailable: {reason}")


@pytest.fixture()
def triangle_model() -> IsingModel:
    """A frustrated 3-spin antiferromagnet (6 degenerate ground states)."""
    model = IsingModel()
    for pair in (("a", "b"), ("b", "c"), ("c", "a")):
        model.add_interaction(*pair, 1.0)
    return model


# ----------------------------------------------------------------------
# Annealing-service fixtures (tests/test_service.py, benchmarks).
#
# Server tests must never hang the suite: every fixture below is
# wall-clock bounded, and an autouse faulthandler guard (the stdlib
# stand-in for pytest-timeout, which is not a dependency of this repo)
# dumps all stacks and kills the process if a service test wedges.
# ----------------------------------------------------------------------
SERVICE_TEST_TIMEOUT_S = 120.0


@pytest.fixture(autouse=True)
def _service_hang_guard(request):
    """Hard wall-clock bound for service/benchmark tests only."""
    path = str(getattr(request, "fspath", ""))
    if "test_service" not in path:
        yield
        return
    faulthandler.dump_traceback_later(SERVICE_TEST_TIMEOUT_S, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


class ServiceClient:
    """A tiny JSON-over-HTTP client for the test server.

    Returns ``(status, decoded_body)`` and never raises on HTTP error
    statuses -- 4xx/5xx bodies are part of the contract under test.
    """

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def request(
        self, method, path, payload=None, tenant="tests", timeout_s=30.0, headers=None
    ):
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        all_headers = {"Content-Type": "application/json", "X-Tenant": tenant}
        if headers:
            all_headers.update(headers)
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers=all_headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as reply:
                body = reply.read().decode("utf-8")
                headers = dict(reply.headers)
                status = reply.status
        except urllib.error.HTTPError as exc:
            body = exc.read().decode("utf-8")
            headers = dict(exc.headers)
            status = exc.code
        try:
            decoded = json.loads(body)
        except json.JSONDecodeError:
            decoded = body
        return status, decoded, headers

    def get(self, path, **kwargs):
        status, body, _ = self.request("GET", path, **kwargs)
        return status, body

    def post(self, path, payload, **kwargs):
        status, body, _ = self.request("POST", path, payload=payload, **kwargs)
        return status, body

    def await_terminal(self, job_id, timeout_s=60.0, poll_s=0.02):
        """Poll one job to a terminal state (bounded)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status, snapshot = self.get(f"/jobs/{job_id}")
            assert status == 200, f"poll failed: {status} {snapshot}"
            if snapshot["state"] in ("done", "error", "timeout"):
                return snapshot
            time.sleep(poll_s)
        raise AssertionError(f"job {job_id} still {snapshot['state']} after {timeout_s}s")


def start_service_server(config=None):
    """Start an AnnealingServer on an ephemeral port; bounded readiness.

    Returns ``(server, client)``; the caller owns shutdown (the
    ``service_server`` fixture wraps this with asserted-clean teardown).
    """
    from repro.service.app import AnnealingServer, ServiceConfig

    server = AnnealingServer(config or ServiceConfig(port=0, workers=2))
    thread = threading.Thread(
        target=server.serve_forever, name="service-test-server", daemon=True
    )
    thread.start()
    client = ServiceClient(server.url)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            status, body = client.get("/healthz", timeout_s=2.0)
            if status == 200 and body.get("status") == "ok":
                return server, client
        except (OSError, urllib.error.URLError):
            pass
        time.sleep(0.02)
    server.shutdown_service(drain=False, timeout_s=5.0)
    raise AssertionError("service did not become healthy within 10s")


@pytest.fixture()
def service_server():
    """A running server + client; teardown asserts a clean wind-down.

    The thread-leak check is part of the serving contract: after a
    drained shutdown no worker or handler thread may survive.
    """
    baseline_threads = {t.ident for t in threading.enumerate()}
    server, client = start_service_server()
    yield server, client
    clean = server.shutdown_service(drain=True, timeout_s=30.0)
    assert clean, "service shutdown did not drain cleanly"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        leaked = [
            t
            for t in threading.enumerate()
            if t.ident not in baseline_threads and t.is_alive()
        ]
        if not leaked:
            break
        time.sleep(0.05)
    assert not leaked, f"service left threads behind: {[t.name for t in leaked]}"

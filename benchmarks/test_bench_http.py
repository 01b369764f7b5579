"""Experiment G2 — the event-loop HTTP server (ISSUE 6).

Three measurements of the same tiny echo app on :class:`RestServer` and
on a thread-per-connection baseline — the stdlib ``ThreadingHTTPServer``
defined below, measured in the same run on the same machine (absolute
req/s or µs thresholds would depend on the runner):

- **idle keep-alive capacity** (the guarded path): open N idle
  keep-alive connections and read the process RSS delta. The event loop
  pays a ``_Connection`` object and a selector slot per socket; the
  baseline pays a whole handler thread. The guard: N idle event-loop
  connections (5,000 at full scale) fit in under ``IDLE_RSS_LIMIT_MB``
  of RSS growth;
- **submit throughput under concurrency** (the second guard): concurrent
  keep-alive clients each hammering POSTs. The event loop at 10× the
  baseline's client count must match or beat the baseline's throughput
  — C10k concurrency must not cost aggregate throughput;
- **small-job round-trip latency** (the third guard): one client,
  sequential POSTs, median round-trip. The event-loop path (parse on the
  loop, handle on a worker, direct write back from the worker) must stay
  within ``LATENCY_REGRESSION_LIMIT`` of thread-per-connection.

Rows land in ``benchmarks/results.json`` (experiment G2); the guard
record lands in ``benchmarks/BENCH_http.json``.
"""

import json
import resource
import socket
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from benchmarks.conftest import full_scale, record_experiment
from repro.http import RestServer
from repro.http.app import RestApp
from repro.http.messages import Response

BENCH_PATH = Path(__file__).parent / "BENCH_http.json"

#: RSS growth allowed while holding the full idle connection count.
IDLE_RSS_LIMIT_MB = 256.0

#: Event-loop median round-trip may exceed the baseline's median by at most
#: this factor (plus a fixed 50 µs floor for timer jitter on small bases).
LATENCY_REGRESSION_LIMIT = 1.10
LATENCY_SLACK_S = 50e-6

_POST = (
    b"POST /echo HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
    b"Content-Length: 14\r\n\r\n"
    b'{"value": 421}'
)


def bench_app() -> RestApp:
    app = RestApp("bench-http")
    app.route("POST", "/echo", lambda request: Response.json({"echo": request.json}))
    return app


class _EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, like the server under test
    disable_nagle_algorithm = True
    wbufsize = 65536  # head and body leave in one segment

    def do_POST(self) -> None:
        value = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps({"echo": value}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args: object) -> None:
        pass


class StdlibThreadedServer(ThreadingHTTPServer):
    """The thread-per-connection baseline, with the slice of the
    :class:`RestServer` surface the measurements use."""

    request_queue_size = 128
    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _EchoHandler)
        self.host, self.port = self.server_address
        self.connections_accepted = 0

    def get_request(self):  # noqa: ANN201 - socketserver signature
        request = super().get_request()
        self.connections_accepted += 1
        return request

    def start(self) -> "StdlibThreadedServer":
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


#: ``impl`` label -> a started server.
SERVERS = {
    "eventloop": lambda: RestServer(bench_app()).start(),
    "stdlib-threaded": lambda: StdlibThreadedServer().start(),
}


def rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found")


def raise_fd_limit(needed: int) -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))


def read_one_response(sock: socket.socket) -> None:
    """Drain exactly one Content-Length-framed response."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-body")
        body += chunk


def _measure_idle_capacity(impl: str, connections: int) -> dict:
    """RSS cost of holding ``connections`` idle keep-alive sockets."""
    server = SERVERS[impl]()
    socks = []
    try:
        before = rss_mb()
        for _ in range(connections):
            socks.append(socket.create_connection((server.host, server.port)))
        # let the server finish adopting every socket before sampling
        deadline = time.monotonic() + 30
        while server.connections_accepted < connections and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)
        after = rss_mb()
        assert server.connections_accepted == connections
        # the sockets still work: first and last answer a request
        for probe in (socks[0], socks[-1]):
            probe.sendall(_POST)
            read_one_response(probe)
        return {
            "impl": impl,
            "idle_connections": connections,
            "rss_delta_mb": round(after - before, 1),
        }
    finally:
        for sock in socks:
            sock.close()
        server.stop()


def _client_worker(address, requests, latencies, errors):
    try:
        with socket.create_connection(address) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(requests):
                start = time.perf_counter()
                sock.sendall(_POST)
                read_one_response(sock)
                latencies.append(time.perf_counter() - start)
    except Exception as error:  # noqa: BLE001 - counted, reported by the caller
        errors.append(error)


def _measure_throughput(impl: str, clients: int, requests_each: int) -> dict:
    """Aggregate req/s of ``clients`` concurrent keep-alive clients."""
    server = SERVERS[impl]()
    try:
        address = (server.host, server.port)
        latencies: list[float] = []
        errors: list[Exception] = []
        threads = [
            threading.Thread(
                target=_client_worker, args=(address, requests_each, latencies, errors)
            )
            for _ in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        elapsed = time.perf_counter() - start
        assert not errors, f"{len(errors)} client errors, first: {errors[0]!r}"
        total = clients * requests_each
        return {
            "impl": impl,
            "clients": clients,
            "requests": total,
            "throughput_rps": round(total / elapsed, 1),
            "p99_ms": round(sorted(latencies)[int(len(latencies) * 0.99)] * 1e3, 2),
        }
    finally:
        server.stop()


def _measure_latency(impl: str, samples: int) -> dict:
    """Median sequential round-trip of one keep-alive client."""
    server = SERVERS[impl]()
    try:
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            timings = []
            for index in range(samples + 50):
                start = time.perf_counter()
                sock.sendall(_POST)
                read_one_response(sock)
                if index >= 50:  # warmup excluded
                    timings.append(time.perf_counter() - start)
        return {
            "impl": impl,
            "samples": samples,
            "median_us": round(statistics.median(timings) * 1e6, 1),
            "p99_us": round(sorted(timings)[int(len(timings) * 0.99)] * 1e6, 1),
        }
    finally:
        server.stop()


def test_g2_eventloop_capacity_throughput_latency():
    if full_scale():
        idle_eventloop, idle_baseline = 5000, 1000
        clients_eventloop, clients_baseline = 1000, 100
        requests_each, latency_samples = 20, 2000
    else:
        idle_eventloop, idle_baseline = 512, 128
        clients_eventloop, clients_baseline = 100, 10
        requests_each, latency_samples = 20, 500
    raise_fd_limit(2 * idle_eventloop + 2 * clients_eventloop + 256)

    # latency first: it is the most sensitive measurement, and the
    # thousand-thread throughput phase leaves allocator/scheduler noise
    # behind that would bias it
    latency_rows = [
        _measure_latency("eventloop", latency_samples),
        _measure_latency("stdlib-threaded", latency_samples),
    ]
    idle_rows = [
        _measure_idle_capacity("eventloop", idle_eventloop),
        _measure_idle_capacity("stdlib-threaded", idle_baseline),
    ]
    throughput_rows = [
        _measure_throughput("eventloop", clients_eventloop, requests_each),
        _measure_throughput("stdlib-threaded", clients_baseline, requests_each),
    ]

    idle_delta = idle_rows[0]["rss_delta_mb"]
    eventloop_rps = throughput_rows[0]["throughput_rps"]
    baseline_rps = throughput_rows[1]["throughput_rps"]
    eventloop_median = latency_rows[0]["median_us"] / 1e6
    baseline_median = latency_rows[1]["median_us"] / 1e6
    latency_limit = baseline_median * LATENCY_REGRESSION_LIMIT + LATENCY_SLACK_S

    table = [
        {
            "measure": "idle_rss",
            "impl": row["impl"],
            "n": row["idle_connections"],
            "value": row["rss_delta_mb"],
            "unit": "MB",
        }
        for row in idle_rows
    ] + [
        {
            "measure": "throughput",
            "impl": row["impl"],
            "n": row["clients"],
            "value": row["throughput_rps"],
            "unit": "req/s",
        }
        for row in throughput_rows
    ] + [
        {
            "measure": "latency_median",
            "impl": row["impl"],
            "n": row["samples"],
            "value": row["median_us"],
            "unit": "us",
        }
        for row in latency_rows
    ]
    record_experiment(
        "G2",
        "Event-loop HTTP server: idle capacity, throughput under concurrency, latency",
        table,
        notes=(
            f"idle guard: {idle_eventloop} event-loop connections cost "
            f"{idle_delta} MB RSS (limit {IDLE_RSS_LIMIT_MB:.0f} MB); "
            f"throughput guard: eventloop@{clients_eventloop} {eventloop_rps} rps vs "
            f"stdlib-threaded@{clients_baseline} {baseline_rps} rps; "
            f"latency guard: eventloop median {latency_rows[0]['median_us']} us vs "
            f"stdlib-threaded {latency_rows[1]['median_us']} us "
            f"(limit {LATENCY_REGRESSION_LIMIT:.2f}x + {LATENCY_SLACK_S * 1e6:.0f} us)"
        ),
    )

    BENCH_PATH.write_text(
        json.dumps(
            {
                "experiment": "G2",
                "recorded_at": time.strftime("%Y-%m-%d %H:%M:%S"),
                "idle_guard": {
                    "metric": f"RSS growth holding {idle_eventloop} idle keep-alive "
                    "connections on the event loop",
                    "limit_mb": IDLE_RSS_LIMIT_MB,
                    "measured_mb": idle_delta,
                    "baseline": idle_rows[1],
                    "passed": idle_delta < IDLE_RSS_LIMIT_MB,
                },
                "throughput_guard": {
                    "metric": f"event-loop rps at {clients_eventloop} clients vs "
                    f"stdlib-threaded rps at {clients_baseline} clients",
                    "limit_rps": baseline_rps,
                    "measured_rps": eventloop_rps,
                    "passed": eventloop_rps >= baseline_rps,
                },
                "latency_guard": {
                    "metric": "single-client median POST round-trip, event-loop vs "
                    "stdlib-threaded, same run",
                    "limit_factor": LATENCY_REGRESSION_LIMIT,
                    "baseline_median_us": latency_rows[1]["median_us"],
                    "measured_median_us": latency_rows[0]["median_us"],
                    "passed": eventloop_median <= latency_limit,
                },
                "idle_capacity": idle_rows,
                "throughput": throughput_rows,
                "latency": latency_rows,
            },
            indent=2,
        )
        + "\n"
    )

    assert idle_delta < IDLE_RSS_LIMIT_MB, (
        f"{idle_eventloop} idle connections grew RSS by {idle_delta} MB "
        f"(limit {IDLE_RSS_LIMIT_MB} MB)"
    )
    assert eventloop_rps >= baseline_rps, (
        f"event-loop at {clients_eventloop} clients managed {eventloop_rps} rps, "
        f"below stdlib-threaded at {clients_baseline} clients ({baseline_rps} rps)"
    )
    assert eventloop_median <= latency_limit, (
        f"event-loop median {eventloop_median * 1e6:.0f} us exceeds "
        f"{LATENCY_REGRESSION_LIMIT:.2f}x stdlib-threaded ({baseline_median * 1e6:.0f} us)"
    )

"""The live ``/metrics`` scrape endpoint (``http.server``, stdlib only).

:class:`MetricsServer` runs a ``ThreadingHTTPServer`` in a daemon
thread and answers:

* ``GET /metrics``  — the Prometheus text exposition returned by the
  configured provider (for a running harness: the parent's *merged*
  registry, worker deltas included, rendered under the registry lock
  so mid-run scrapes are always format-consistent);
* ``GET /healthz``  — a small JSON liveness document;
* anything else     — 404.

Two front ends use it: ``repro-harness ... --serve-metrics PORT``
exposes the live registry while a run executes (port 0 picks an
ephemeral port; the chosen endpoint is printed before the first
experiment starts), and ``repro-harness obs serve`` replays a stored
run's ``metrics.prom``, re-reading the file per request so it follows
a concurrently finishing run.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

__all__ = ["MetricsServer", "collector_provider", "stored_provider"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def collector_provider() -> str:
    """Exposition text for the process's active collector (empty
    exposition when telemetry is off)."""
    from repro import obs
    from repro.obs.registry import render_prometheus

    collector = obs.get_collector()
    if collector is None:
        return ""
    return render_prometheus(collector.registry)


def stored_provider(runs_root: str,
                    token: str = "last") -> Callable[[], str]:
    """A provider replaying a stored run's ``metrics.prom``.  The run
    token is re-resolved and the file re-read on every request, so
    ``obs serve`` follows whatever run is newest."""

    def provide() -> str:
        from repro.obs.report import load_obs, resolve_run

        run_doc = resolve_run(runs_root, token)
        if run_doc is None:
            return ""
        return str(load_obs(runs_root, run_doc).get("metrics", ""))

    return provide


class MetricsServer:
    """A daemon-threaded scrape endpoint over a text provider."""

    def __init__(self, metrics_provider: Callable[[], str],
                 health_provider: Optional[
                     Callable[[], Dict[str, object]]] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self._metrics_provider = metrics_provider
        self._health_provider = health_provider
        self._host = host
        #: what the caller asked for — kept pristine so a
        #: ``stop()`` → ``start()`` cycle re-binds from the request
        #: (port 0 picks a *fresh* ephemeral port), never from a stale
        #: resolved one that another process may hold by now
        self._requested_port = port
        #: the port actually bound, authoritative while serving;
        #: ``None`` whenever the server is not running
        self._bound_port: Optional[int] = None
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve from a daemon thread; returns (host, port)
        with the ephemeral port resolved."""
        if self._server is not None:
            raise RuntimeError("MetricsServer is already running on "
                               "%s:%d" % (self._host, self._bound_port))
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # noqa: N802
                pass  # scrapes must not spam the run's stderr

            def do_GET(self) -> None:  # noqa: N802
                outer._handle(self)

        server = ThreadingHTTPServer((self._host, self._requested_port),
                                     Handler)
        server.daemon_threads = True
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-serve", daemon=True)
        self._thread.start()
        self._bound_port = server.server_address[1]
        return self._host, self._bound_port

    @property
    def address(self) -> Tuple[str, int]:
        """(host, bound port); raises until :meth:`start` resolves the
        bind — an unresolved ephemeral port (0) must never be
        advertised as an endpoint."""
        if self._bound_port is None:
            raise RuntimeError(
                "MetricsServer has no address before start() "
                "(requested port %d is not an endpoint)"
                % self._requested_port)
        return self._host, self._bound_port

    def url(self, path: str = "/metrics") -> str:
        host, port = self.address
        return "http://%s:%d%s" % (host, port, path)

    def stop(self) -> None:
        server, self._server = self._server, None
        self._bound_port = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def run_until_interrupt(self) -> None:
        """Foreground mode for ``obs serve``: block until Ctrl-C."""
        import time

        try:
            while self._server is not None:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- request handling ---------------------------------------------

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        if path == "/metrics":
            try:
                body = self._metrics_provider().encode("utf-8")
            except Exception as error:  # provider bug ≠ dead endpoint
                self._respond(request, 500, "text/plain",
                              ("provider error: %s\n"
                               % error).encode("utf-8"))
                return
            self._respond(request, 200, CONTENT_TYPE, body)
        elif path == "/healthz":
            document: Dict[str, object] = {"status": "ok"}
            if self._health_provider is not None:
                try:
                    document.update(self._health_provider())
                except Exception:
                    pass
            body = (json.dumps(document, sort_keys=True)
                    + "\n").encode("utf-8")
            self._respond(request, 200, "application/json", body)
        else:
            self._respond(request, 404, "text/plain",
                          b"not found (try /metrics or /healthz)\n")

    @staticmethod
    def _respond(request: BaseHTTPRequestHandler, status: int,
                 content_type: str, body: bytes) -> None:
        try:
            request.send_response(status)
            request.send_header("Content-Type", content_type)
            request.send_header("Content-Length", str(len(body)))
            request.end_headers()
            request.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-scrape

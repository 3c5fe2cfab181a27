"""The served workload's side of the wire: a ``repro-diff serve --workers 2``
subprocess and a closed-loop caller over one connection."""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.serve.client import DiffServiceClient

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


class Cluster:
    """One router plus two worker processes, started from the checkout's source."""

    def __init__(self, root: str, workers: int = 2) -> None:
        self.root = root
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.output: List[str] = []
        self._reader: Optional[threading.Thread] = None

    def start(self, timeout: float = 60.0) -> float:
        """Start the cluster; return seconds until /healthz reports every worker up."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(self.workers)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        banner = threading.Event()
        self._reader = threading.Thread(target=self._read, args=(banner,), daemon=True)
        self._reader.start()
        deadline = started + timeout
        if not banner.wait(timeout):
            raise RuntimeError("server printed no banner:\n" + "".join(self.output))
        with DiffServiceClient(port=self.port, retries=0, connect_retries=0, timeout=5) as client:
            while time.perf_counter() < deadline:
                try:
                    health = client.healthz()
                except (OSError, http.client.HTTPException):
                    health = {}
                    client.close()
                if health.get("status") == "ok" and health.get("workers_up") == self.workers:
                    return time.perf_counter() - started
                time.sleep(0.005)
        raise RuntimeError("cluster not ready in time:\n" + "".join(self.output))

    def pin_workers(self) -> None:
        """Pin each worker process to its own CPU. Left to the OS, the two
        workers sometimes share one core for a whole run (the scheduler
        keeps an intermittently busy process where it last ran), which
        moves every latency of that run."""
        cpus = sorted(os.sched_getaffinity(0))
        workers = sorted(self.health()["workers"].items())
        for index, (_, worker) in enumerate(workers):
            os.sched_setaffinity(worker["pid"], {cpus[index % len(cpus)]})

    def _read(self, banner: threading.Event) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)
            match = _BANNER.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                banner.set()

    def health(self) -> Dict[str, Any]:
        with DiffServiceClient(port=self.port, retries=0) as client:
            return client.healthz()

    def metrics(self) -> Dict[str, Any]:
        with DiffServiceClient(port=self.port, retries=0) as client:
            return client.metrics()

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory (VmHWM) of the router and its workers."""
        pids = [self.proc.pid] + [w["pid"] for w in self.health()["workers"].values()]
        total_kb = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)
        self.proc = None


def closed_loop(
    port: int,
    requests: Iterator[Tuple[Dict[str, Any], Dict[str, Any]]],
    budget_s: float,
) -> List[Dict[str, Any]]:
    """Send ``(payload, record)`` items from *requests* one at a time over
    one keep-alive connection until the round trips add up to *budget_s*.

    Making the next item happens outside the timed round trip. Each record
    gains ``ns`` (the round trip, JSON encode and decode included),
    ``status`` and ``body``.
    Each request is sent once: a refused or failed one is not retried.
    """
    records: List[Dict[str, Any]] = []
    spent = 0
    budget_ns = int(budget_s * 1e9)
    with DiffServiceClient(port=port, retries=0, connect_retries=0, timeout=30) as client:
        while spent < budget_ns:
            payload, record = next(requests)
            begin = time.perf_counter_ns()
            try:
                status, body, _ = client.request_once("POST", "/v1/diff", payload)
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
                client.close()
            done = time.perf_counter_ns()
            spent += done - begin
            record.update(ns=done - begin, status=status, body=body)
            records.append(record)
    return records


def router_hop_ms(cluster: Cluster, payload: Dict[str, Any], samples: int) -> float:
    """Median round trip of a digest short-circuit request through the
    router minus the same request sent straight to a worker."""
    ports = [w["port"] for w in cluster.health()["workers"].values()]

    def median_ms(port: int) -> float:
        times = []
        with DiffServiceClient(port=port, retries=0) as client:
            for _ in range(samples):
                begin = time.perf_counter()
                status, _, _ = client.request_once("POST", "/v1/diff", payload)
                times.append((time.perf_counter() - begin) * 1000.0)
                if status != 200:
                    raise RuntimeError(f"hop probe answered {status}")
        times.sort()
        return times[len(times) // 2]

    direct = sum(median_ms(port) for port in ports) / len(ports)
    return median_ms(cluster.port) - direct

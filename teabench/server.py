"""A ``repro.service serve`` subprocess and a pipelining asyncio client.

The client speaks the service's own framing (``repro.service.protocol``)
so one connection can carry a replay and the reads sent beside it.
"""

import asyncio
import signal
import subprocess
import sys
import time

from common import child_env


class ServerProcess:
    """One ``python -m repro.service serve`` child process."""

    def __init__(self, store_dir, work, workers, name="server"):
        self.port_file = work / ("%s.port" % name)
        self.log_path = work / ("%s.log" % name)
        if self.port_file.exists():
            self.port_file.unlink()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--store", str(store_dir), "--port", "0",
             "--port-file", str(self.port_file),
             "--workers", str(workers)],
            stdout=self._log, stderr=subprocess.STDOUT, env=child_env(),
        )
        self.port = None

    @property
    def pid(self):
        return self.proc.pid

    def wait_ready(self, timeout=120.0):
        """Wait for the port file, then answer one ``ping``."""
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + timeout
        while not self.port_file.exists():
            if self.proc.poll() is not None:
                raise RuntimeError("server exited with code %s; see %s"
                                   % (self.proc.returncode, self.log_path))
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start within %.0f s"
                                   % timeout)
            time.sleep(0.005)
        self.port = int(self.port_file.read_text())
        with ServiceClient("127.0.0.1", self.port, timeout=timeout) as client:
            client.ping()

    def stop(self):
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


class Connection:
    """One pipelining connection: many requests in flight, answers
    matched to requests by id."""

    def __init__(self):
        self._reader = None
        self._writer = None
        self._pending = {}
        self._next_id = 0
        self._task = None

    async def open(self, port):
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port)
        self._task = asyncio.ensure_future(self._receive())

    async def _receive(self):
        from repro.service.protocol import read_frame

        try:
            while True:
                reply = await read_frame(self._reader)
                if reply is None:
                    break
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except Exception as error:  # noqa: BLE001 — fail every waiter
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            raise
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ConnectionError("connection closed"))

    async def call(self, method, params):
        """``(reply, seconds)`` for one request."""
        from repro.service.protocol import encode_frame

        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        started = time.perf_counter()
        self._writer.write(encode_frame(
            {"id": request_id, "method": method, "params": params}))
        await self._writer.drain()
        reply = await future
        return reply, time.perf_counter() - started

    async def close(self):
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        try:
            await self._task
        except (ConnectionError, OSError):
            pass


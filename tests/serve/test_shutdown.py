"""Graceful-shutdown regression: a real ``repro serve`` subprocess.

SIGTERM (the deployment default — what an init system or orchestrator
sends) must drain in-flight work and exit 0, not die with a traceback
and stranded requests.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_http(port: int, process: subprocess.Popen, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            _, stderr = process.communicate()
            raise AssertionError(
                f"serve exited early ({process.returncode}):\n{stderr}"
            )
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz?ready=1", timeout=2
            ) as response:
                if response.status == 200:
                    return
        except OSError:
            time.sleep(0.1)
    raise AssertionError("serve never became ready")


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_sigterm_drains_and_exits_cleanly(model_archive, sig):
    port = _free_port()
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "-v", "serve",
            "--model", str(model_archive),
            "--port", str(port),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _wait_for_http(port, process, timeout=60)
        # Prove it serves, then interrupt it.
        body = json.dumps({"rows": [["a", "b"], ["1", "2"]]}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/classify",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        process.send_signal(sig)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, stderr
    assert "interrupt received, draining" in stderr
    assert "drained; service closed" in stderr
    assert "Traceback" not in stderr

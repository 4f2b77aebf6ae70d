#!/usr/bin/env python
"""End-to-end smoke test for the networked federation service.

Runs the same experiment twice from the command line — once with
``repro run`` (serial, in-process) and once with ``repro serve`` plus
two ``repro client`` worker processes over loopback — then asserts the
two ``<algorithm>_history.json`` files are identical.  This is the CI
acceptance gate for ``repro.serve``: if the coordinator, the wire
protocol, or the client runner drift from the engine's determinism
contract, the histories diverge and the script exits non-zero.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--rounds 2] [--algorithm adaptivefl]
        [--transport-codec int8]

``--transport-codec`` runs both sides over a lossy uplink codec: the
encode → wire → decode-into-the-fold path instead of the exact one,
where the trained slice itself is the upload.  Lossy, but the histories (true encoded ``bytes_up``
included) must still be identical.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
LISTEN_LINE = re.compile(r"repro-serve: listening on (\S+):(\d+)")


def run_serial(algorithm: str, rounds: int, scale: str, codec: str, output_dir: Path) -> None:
    """Produce the serial reference history via ``repro run``."""
    subprocess.run(
        [
            sys.executable, "-m", "repro", "run",
            "--algorithm", algorithm, "--scale", scale,
            "--rounds", str(rounds), "--quiet",
            "--transport-codec", codec,
            "--output-dir", str(output_dir),
        ],
        cwd=REPO_ROOT,
        check=True,
        timeout=600,
    )


def run_remote(algorithm: str, rounds: int, scale: str, codec: str, output_dir: Path, clients: int) -> None:
    """Run the same experiment through ``repro serve`` + worker processes."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--algorithm", algorithm, "--scale", scale,
            "--rounds", str(rounds), "--quiet",
            "--transport-codec", codec,
            "--output-dir", str(output_dir),
            "--port", "0", "--expect-clients", str(clients),
            "--heartbeat-interval", "1", "--connect-timeout", "60",
        ],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    workers: list[subprocess.Popen] = []
    try:
        # the coordinator announces its bound (ephemeral) port on stdout
        port = None
        assert server.stdout is not None
        for line in server.stdout:
            match = LISTEN_LINE.search(line)
            if match:
                port = match.group(2)
                break
        if port is None:
            raise RuntimeError("server exited before announcing its address")
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "client",
                    "--port", port, "--name", f"smoke-{index}",
                    "--backoff-base", "0.05", "--quiet",
                ],
                cwd=REPO_ROOT,
            )
            for index in range(clients)
        ]
        # drain the rest of stdout so the server never blocks on a full pipe
        for _ in server.stdout:
            pass
        if server.wait(timeout=600) != 0:
            raise RuntimeError(f"repro serve exited with {server.returncode}")
        # an orderly shutdown sends bye to every worker: they must exit 0
        for index, worker in enumerate(workers):
            if worker.wait(timeout=30) != 0:
                raise RuntimeError(f"worker smoke-{index} exited with {worker.returncode}")
    finally:
        for process in [server, *workers]:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


def main(argv: list[str] | None = None) -> int:
    """Run both paths and diff the histories; 0 iff bit-identical."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="adaptivefl")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--scale", default="ci")
    parser.add_argument("--clients", type=int, default=2)
    parser.add_argument("--transport-codec", default="none", help="uplink codec of both runs")
    args = parser.parse_args(argv)
    codec = args.transport_codec

    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        serial_dir = Path(tmp) / "serial"
        remote_dir = Path(tmp) / "remote"
        print(f"[serve-smoke] serial reference: {args.algorithm}, {args.rounds} rounds, codec {codec}")
        run_serial(args.algorithm, args.rounds, args.scale, codec, serial_dir)
        print(f"[serve-smoke] networked run: {args.clients} clients over loopback")
        run_remote(args.algorithm, args.rounds, args.scale, codec, remote_dir, args.clients)

        history = f"{args.algorithm}_history.json"
        serial = json.loads((serial_dir / history).read_text(encoding="utf-8"))
        remote = json.loads((remote_dir / history).read_text(encoding="utf-8"))
        if serial != remote:
            print(f"[serve-smoke] FAIL: {history} differs between serial and remote runs")
            return 1
    print(f"[serve-smoke] OK: {history} bit-identical between serial and remote runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

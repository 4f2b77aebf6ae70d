"""CLI wiring of the ``repro serve`` / ``repro client`` subcommands."""

import pytest

from repro.api.cli import build_parser, main


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--algorithm", "adaptivefl"])
    assert args.command == "serve"
    assert args.host == "127.0.0.1"
    assert args.port == 7733
    assert args.expect_clients == 1
    assert args.straggler_timeout == 60.0
    assert args.heartbeat_interval == 10.0
    assert args.liveness_timeout == 120.0
    # the full setting/run surface rides along
    assert args.dataset == "cifar10"
    assert args.transport_codec == "none"
    assert args.output_dir is not None


def test_client_parser_defaults():
    args = build_parser().parse_args(["client", "--port", "7733", "--name", "w0"])
    assert args.command == "client"
    assert args.host == "127.0.0.1"
    assert args.reconnect_attempts == 10
    assert args.drop_after is None
    assert args.quiet is False


def test_client_requires_port_and_name(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["client", "--name", "w0"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        build_parser().parse_args(["client", "--port", "7733"])
    capsys.readouterr()


def test_client_connect_refused_exits_nonzero():
    # port 1 on loopback: connection refused immediately, no retries wanted
    code = main(
        [
            "client",
            "--host",
            "127.0.0.1",
            "--port",
            "1",
            "--name",
            "w0",
            "--reconnect-attempts",
            "0",
            "--quiet",
        ]
    )
    assert code == 1


def test_executor_flag_accepts_remote():
    args = build_parser().parse_args(["run", "--algorithm", "adaptivefl", "--executor", "remote"])
    assert args.executor == "remote"
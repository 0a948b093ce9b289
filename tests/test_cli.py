"""CLI tests: argument handling, exit codes, and output shapes."""

import builtins
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from csrflab import cli, harness
from csrflab.config import LabConfig
from csrflab.forum import DefenseMode
from csrflab.harness import AttackOutcome, MatrixReport, ScenarioId, ScenarioSetupFailed
from csrflab.httpcore import HttpMethod, make_request, parse_response, serialize
from csrflab.transport import ConnectionFailed, TcpTransport


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("csrf-lab ")


def test_unknown_scenario_is_an_argument_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["attack", "--scenario", "A9", "--policy", "none"])
    assert excinfo.value.code == 2


class TestFixturesCommand:
    def test_writes_the_three_pages(self, tmp_path, capsys):
        assert cli.main(["fixtures", "--emit", str(tmp_path / "fx")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        attack_page = (tmp_path / "fx" / "attack_form.html").read_text()
        assert 'id="post-form"' in attack_page
        assert "http://127.0.0.1:8080/cgi-bin/Forum/new_pm.php" in attack_page
        assert (tmp_path / "fx" / "login_form.html").exists()
        assert (tmp_path / "fx" / "index.html").exists()

    def test_a_directory_under_a_regular_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        assert cli.main(["fixtures", "--emit", str(tmp_path / "plain" / "fx")]) == 2
        assert capsys.readouterr().err.startswith("csrf-lab: ")


class TestAttackCommand:
    def test_plain_report(self, capsys):
        assert cli.main(["attack", "--scenario", "A1", "--policy", "none"]) == 0
        out = capsys.readouterr().out
        assert "A1 under none: attack SUCCEEDED (status 302" in out

    def test_defended_attack_still_exits_zero(self, capsys):
        # A blocked attack is a completed experiment, not an error.
        assert cli.main(["attack", "--scenario", "A2", "--policy", "csrf_token"]) == 0
        assert "attack failed (status 403" in capsys.readouterr().out

    def test_json_cell(self, capsys):
        assert (
            cli.main(
                ["attack", "--scenario", "A4", "--policy", "origin_check",
                 "--spoof-origin", "--json"]
            )
            == 0
        )
        cell = json.loads(capsys.readouterr().out)
        assert cell["scenario"] == "A4"
        assert cell["spoof"] is True
        assert (cell["success"], cell["status"]) == (True, 302)

    def test_plain_report_of_a_spoofed_origin(self, capsys):
        argv = ["attack", "--scenario", "A4", "--policy", "origin_check", "--spoof-origin"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "A4 under origin_check with spoofed Origin: attack SUCCEEDED (status 302" in out

    def test_setup_failure_exits_two(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise ScenarioSetupFailed("injected")

        monkeypatch.setattr(harness, "run_scenario", explode)
        assert cli.main(["attack", "--scenario", "A1", "--policy", "none"]) == 2
        assert "injected" in capsys.readouterr().err

    def test_lab_that_cannot_be_set_up_exits_two(self, lab_server, monkeypatch, capsys):
        _lab_on_a_taken_port(lab_server, monkeypatch)
        assert cli.main(["attack", "--scenario", "A1", "--policy", "none"]) == 2
        assert capsys.readouterr().err.startswith("csrf-lab: cannot set up the lab: ")

    def test_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # Not during the attack step, and not after it.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        seen, attack = [], harness._attack
        monkeypatch.setattr(
            harness, "_attack", lambda *args: seen.append(list(tmp_path.iterdir())) or attack(*args)
        )
        assert cli.main(["attack", "--scenario", "A1", "--policy", "none"]) == 0
        assert "attack SUCCEEDED" in capsys.readouterr().out
        assert seen == [[]]
        assert list(tmp_path.iterdir()) == []


def _lab_on_a_taken_port(lab_server, monkeypatch):
    """open_lab's server cannot bind: its port is another server's."""
    taken = lab_server().port
    monkeypatch.setattr(harness, "LabConfig", lambda port, seed: LabConfig(port=taken, seed=seed))


def _dead_cell():
    return AttackOutcome(
        scenario=ScenarioId.A1_LOAD_URL_ASSET_FORM,
        defense=DefenseMode.NONE,
        spoof=False,
        success=False,
        http_status=0,
        evidence=[],
        notes="ScenarioSetupFailed: injected",
    )


run_matrix_original = harness.run_matrix


def harness_run_matrix_fast(seed):
    # The real thing, just over the in-process transport; the CLI-level
    # tests only care about plumbing around the report.
    return run_matrix_original(seed=seed, in_process=True)


class TestMatrixCommand:
    def test_matching_run_exits_zero_and_writes_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            harness, "run_matrix", lambda seed: harness_run_matrix_fast(seed)
        )
        out_path = tmp_path / "report.json"
        assert cli.main(["matrix", "--json", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "matrix matches the expected grid (17 cells)" in printed
        doc = json.loads(out_path.read_text())
        assert list(doc.keys()) == ["seed", "version", "cells"]
        assert len(doc["cells"]) == 17

    def test_grid_mismatch_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(
            harness, "run_matrix", lambda seed: harness_run_matrix_fast(seed)
        )
        monkeypatch.setattr(harness, "compare_with_expected", lambda report: ["cell off"])
        assert cli.main(["matrix"]) == 1
        assert "cell off" in capsys.readouterr().err

    def test_dead_cell_exits_two(self, monkeypatch, capsys):
        report = MatrixReport(grid=[_dead_cell()], seed=1)
        monkeypatch.setattr(harness, "run_matrix", lambda seed: report)
        assert cli.main(["matrix"]) == 2
        assert "ScenarioSetupFailed" in capsys.readouterr().err

    def test_unwritable_report_path_exits_two(self, monkeypatch, capsys):
        report = MatrixReport(grid=[], seed=1)
        monkeypatch.setattr(harness, "run_matrix", lambda seed: report)
        assert cli.main(["matrix", "--json", "/nonexistent-dir/report.json"]) == 2
        assert "cannot write report" in capsys.readouterr().err

    def test_lab_that_cannot_be_set_up_exits_two(self, lab_server, monkeypatch, capsys):
        _lab_on_a_taken_port(lab_server, monkeypatch)
        assert cli.main(["matrix"]) == 2
        assert capsys.readouterr().err.startswith("csrf-lab: cannot set up the lab: ")


def _refuse(transport, host, port, raw):
    raise ConnectionFailed(f"{host}:{port}: refused")


def _garble(transport, host, port, raw):
    return b"not an HTTP response"


@pytest.mark.parametrize("exchange", [_refuse, _garble], ids=["refused", "garbled"])
@pytest.mark.parametrize(
    "argv",
    [["matrix"], ["attack", "--scenario", "A3", "--policy", "none"]],
    ids=["matrix", "attack"],
)
def test_a_server_that_cannot_be_used_is_a_setup_error(argv, exchange, monkeypatch, capsys):
    # The first set-up step, registration, cannot get an answer: exit 2
    # (setup broke), never 1 (the grid diverged) with a traceback.
    monkeypatch.setattr(TcpTransport, "exchange", exchange)
    assert cli.main(argv) == 2
    assert "registration of 'sohini' failed: " in capsys.readouterr().err


def _default_sigint():
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class TestServeCommand:
    def test_missing_config_file_exits_two(self, capsys):
        assert cli.main(["serve", "--config", "/nonexistent/lab.conf"]) == 2
        assert "csrf-lab:" in capsys.readouterr().err

    def test_bad_config_key_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "lab.conf"
        conf.write_text("listen = yes\n")
        assert cli.main(["serve", "--config", str(conf)]) == 2
        assert "listen" in capsys.readouterr().err

    def test_a_config_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        conf = tmp_path / "lab.conf"
        conf.write_bytes(b"port = 8080\n# caf\xe9\n")
        assert cli.main(["serve", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"csrf-lab: cannot read config {str(conf)!r}: ")
        assert err.count("\n") == 1

    def test_corrupt_snapshot_exits_two(self, tmp_path, capsys):
        snapshot = tmp_path / "state.json"
        snapshot.write_text('{"policy": "none", "se')
        assert cli.main(["serve", "--port", "0", "--snapshot", str(snapshot)]) == 2
        err = capsys.readouterr().err
        assert "csrf-lab: cannot resume from snapshot" in err
        assert "Traceback" not in err

    def test_port_collision_exits_two(self, lab_server, capsys):
        server = lab_server()
        assert cli.main(["serve", "--port", str(server.port)]) == 2
        assert "cannot bind" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, conf", [("70000", None), ("-1", None), (None, "99999")])
    def test_a_port_out_of_range_exits_two(self, tmp_path, capsys, flag, conf):
        argv = ["serve"]
        if flag is not None:
            argv += ["--port", flag]
        if conf is not None:
            (tmp_path / "lab.conf").write_text(f"port = {conf}\n")
            argv += ["--config", str(tmp_path / "lab.conf")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("csrf-lab: port must be in 0-65535")
        assert err.count("\n") == 1

    def test_a_snapshot_in_a_missing_directory_exits_two_before_serving(
        self, tmp_path, monkeypatch, capsys
    ):
        def interrupted(server):
            raise KeyboardInterrupt

        # Were the server to start, it would stop at once and fail to
        # write the snapshot.
        monkeypatch.setattr(cli.ForumServer, "serve_blocking", interrupted)
        snapshot = tmp_path / "missing" / "state.json"
        assert cli.main(["serve", "--port", "0", "--snapshot", str(snapshot)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("csrf-lab: snapshot directory of ")
        assert err.count("\n") == 1

    def test_a_snapshot_path_that_is_a_directory_exits_two_before_serving(
        self, tmp_path, monkeypatch, capsys
    ):
        def interrupted(server):
            raise KeyboardInterrupt

        # Were the server to start, it would stop at once, and os.replace
        # could not put the snapshot file over the directory.
        monkeypatch.setattr(cli.ForumServer, "serve_blocking", interrupted)
        assert cli.main(["serve", "--port", "0", "--snapshot", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"csrf-lab: snapshot {str(tmp_path)!r} is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_foreground_serve_answers_and_stops_cleanly(self, tmp_path):
        snapshot = tmp_path / "state.json"
        # The with block closes the pipes.  The child gets SIGINT at its
        # default disposition even when this process ignores it, as a
        # background job of a non-interactive shell does.
        # Under -X faulthandler, SIGABRT makes the child print every
        # thread's stack to stderr before it dies.
        with subprocess.Popen(
            [sys.executable, "-X", "faulthandler", "-m", "csrflab.cli", "serve", "--port", "0",
             "--policy", "csrf_token", "--seed", "99", "--snapshot", str(snapshot)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=_default_sigint,
        ) as proc:
            try:
                banner = proc.stdout.readline()
                assert banner.startswith("serving on http://127.0.0.1:")
                assert "policy=csrf_token" in banner
                port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
                request = make_request(
                    HttpMethod.GET, f"http://127.0.0.1:{port}/cgi-bin/Forum/index.php"
                )
                response = parse_response(
                    TcpTransport().exchange("127.0.0.1", port, serialize(request))
                )
                assert response.status == 200
            finally:
                proc.send_signal(signal.SIGINT)
                try:
                    out, err = proc.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGABRT)
                    try:
                        out, err = proc.communicate(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        out, err = proc.communicate(timeout=10)
                # Captured, so pytest shows it beside whichever check failed.
                print(f"child exit {proc.returncode}\nstdout: {out!r}\nstderr: {err!r}")
        assert proc.returncode == 0
        deadline = time.time() + 5
        while not snapshot.exists() and time.time() < deadline:
            time.sleep(0.05)
        state = json.loads(snapshot.read_text())
        assert state["policy"] == "csrf_token" and state["seed"] == 99

    def test_a_signal_during_the_banner_still_writes_the_snapshot(self, tmp_path, monkeypatch):
        # A signal sent as soon as the banner is read can land before
        # serve_blocking is entered.
        snapshot = tmp_path / "state.json"

        def interrupted(*args, **kwargs):
            if str(args[0]).startswith("serving on"):
                raise KeyboardInterrupt
            builtins.print(*args, **kwargs)

        monkeypatch.setattr(cli, "print", interrupted, raising=False)
        assert cli.main(["serve", "--port", "0", "--seed", "5", "--snapshot", str(snapshot)]) == 0
        assert json.loads(snapshot.read_text())["seed"] == 5

    def test_sigterm_stops_serve_and_writes_the_snapshot(self, tmp_path):
        snapshot = tmp_path / "state.json"
        with subprocess.Popen(
            [sys.executable, "-m", "csrflab.cli", "serve", "--port", "0",
             "--seed", "5", "--snapshot", str(snapshot)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                assert proc.stdout.readline().startswith("serving on http://127.0.0.1:")
            finally:
                proc.terminate()
                out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert out == "stopped\n"
        assert json.loads(snapshot.read_text())["seed"] == 5

    @pytest.mark.parametrize("sigint_ignored", [False, True])
    def test_signals_during_stop_are_ignored(self, tmp_path, monkeypatch, sigint_ignored):
        # SIGTERM stops the server; one more SIGTERM while stop() runs
        # must not interrupt it.  A SIGINT ignored at start stays ignored.
        snapshot = tmp_path / "state.json"
        seen = {}
        stop = cli.ForumServer.stop

        def serve_until_signalled(server):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(10)

        def stop_under_a_second_signal(server):
            seen["during"] = (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT))
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.05)
            stop(server)

        monkeypatch.setattr(cli.ForumServer, "serve_blocking", serve_until_signalled)
        monkeypatch.setattr(cli.ForumServer, "stop", stop_under_a_second_signal)
        before = (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT))
        if sigint_ignored:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            code = cli.main(["serve", "--port", "0", "--seed", "5", "--snapshot", str(snapshot)])
            after = (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT))
        except KeyboardInterrupt:
            pytest.fail("a second signal interrupted stop()")
        finally:
            signal.signal(signal.SIGTERM, before[0])
            signal.signal(signal.SIGINT, before[1])
        assert code == 0
        assert seen["during"] == (signal.SIG_IGN, signal.SIG_IGN)
        assert after == (before[0], signal.SIG_IGN if sigint_ignored else before[1])
        assert json.loads(snapshot.read_text())["seed"] == 5

    def test_a_second_sigterm_during_shutdown_still_writes_the_snapshot(self, tmp_path):
        # GNU timeout signals the child and its process group, so serve
        # can get a second signal while the first one's stop() runs.  Here
        # stop() waits for a line on stdin, so the second signal surely
        # lands inside it.  (A worker busy with a connection would not
        # hold stop() open: it waits only for the idle workers.)
        snapshot = tmp_path / "state.json"
        child = (
            "import sys\n"
            "from csrflab import cli\n"
            "stop = cli.ForumServer.stop\n"
            "def held_stop(server):\n"
            "    print('stopping', file=sys.stderr, flush=True)\n"
            "    sys.stdin.readline()\n"
            "    stop(server)\n"
            "cli.ForumServer.stop = held_stop\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", child, "serve", "--port", "0",
             "--seed", "5", "--snapshot", str(snapshot)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                assert proc.stdout.readline().startswith("serving on http://127.0.0.1:")
                proc.terminate()
                assert proc.stderr.readline() == "stopping\n"
                proc.terminate()
            finally:
                try:
                    out, err = proc.communicate("\n", timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert (out, err) == ("stopped\n", "")
        assert json.loads(snapshot.read_text())["seed"] == 5

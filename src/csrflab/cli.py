"""csrf-lab command line.

Subcommands:

  serve     run the vulnerable forum in the foreground
  attack    run one attack scenario against a fresh server
  matrix    run the full attack x defense grid and compare it with the
            expected outcomes
  fixtures  write the attack page and forum page fixtures to a directory

Exit codes: 0 when a matrix run matches the expected grid or any other
subcommand ran to completion, 1 when the grid diverged, 2 when setup
broke (bad arguments, unreachable state, cell setup failures).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, fixtures, harness
from .config import ConfigError, build_config, load_config
from .forum import DEFAULT_SEED, CorruptSnapshot, DefenseMode
from .harness import ScenarioId, ScenarioSetupFailed
from .server import ForumServer

EXIT_OK = 0
EXIT_GRID_MISMATCH = 1
EXIT_SETUP_ERROR = 2

_POLICIES = [mode.value for mode in DefenseMode]
_SCENARIOS = [scenario.value for scenario in ScenarioId]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrf-lab",
        description="CSRF attack laboratory: vulnerable forum, browser "
        "emulator, forged client, and the outcome matrix.",
    )
    parser.add_argument("--version", action="version", version=f"csrf-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the forum server in the foreground")
    serve.add_argument("--config", help="config file (key = value lines)")
    serve.add_argument("--port", type=int, help="listen port (0 for ephemeral)")
    serve.add_argument("--policy", choices=_POLICIES, help="defense policy")
    serve.add_argument("--seed", type=int, help="token stream seed")
    serve.add_argument("--snapshot", help="write server state here on shutdown")

    attack = sub.add_parser("attack", help="run one scenario on a fresh server")
    attack.add_argument("--scenario", required=True, choices=_SCENARIOS)
    attack.add_argument("--policy", required=True, choices=_POLICIES)
    attack.add_argument(
        "--spoof-origin",
        action="store_true",
        help="forge an Origin header matching the target (A4 only)",
    )
    attack.add_argument(
        "--json", action="store_true", help="print the outcome as a JSON cell"
    )

    matrix = sub.add_parser("matrix", help="run all scenarios under all defenses")
    matrix.add_argument("--json", metavar="OUT", help="also write the JSON report here")
    matrix.add_argument("--seed", type=int, default=DEFAULT_SEED)

    emit = sub.add_parser("fixtures", help="write fixture pages to a directory")
    emit.add_argument("--emit", required=True, metavar="DIR")
    return parser


def _cmd_serve(args) -> int:
    import signal

    try:
        file_values = load_config(args.config) if args.config else None
        config = build_config(
            file_values, port=args.port, policy=args.policy, seed=args.seed, snapshot=args.snapshot
        )
        # Found only at shutdown, a path the snapshot cannot be written to
        # would lose the whole session.
        if config.snapshot and not Path(config.snapshot).parent.is_dir():
            raise ConfigError(f"snapshot directory of {config.snapshot!r} does not exist")
        if config.snapshot and Path(config.snapshot).is_dir():
            raise ConfigError(f"snapshot {config.snapshot!r} is a directory")
    except (ConfigError, OSError) as exc:
        print(f"csrf-lab: {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    try:
        server = ForumServer(config)
    except CorruptSnapshot as exc:
        print(f"csrf-lab: cannot resume from snapshot {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    except OSError as exc:
        print(f"csrf-lab: cannot bind {config.bind}:{config.port}: {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    # SIGTERM (kill, service managers) stops the server as Ctrl-C does:
    # the finally stops it and writes the snapshot, also when the signal
    # lands while the banner is printed.  The first signal ignores the
    # rest until stop() has returned, so that a second one (GNU timeout
    # signals the child and its process group) cannot interrupt the
    # snapshot.  A SIGINT ignored at start stays ignored.
    def interrupt(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, interrupt)
    previous_int = signal.getsignal(signal.SIGINT)
    if previous_int is not signal.SIG_IGN:
        signal.signal(signal.SIGINT, interrupt)
    try:
        print(
            f"serving on {server.base_url()} "
            f"(policy={config.policy.value}, seed={config.seed})",
            flush=True,
        )
        server.serve_blocking()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
    print("stopped", flush=True)
    return EXIT_OK


def _cmd_attack(args) -> int:
    scenario = ScenarioId(args.scenario)
    defense = DefenseMode(args.policy)
    try:
        with harness.open_lab() as lab:
            outcome = harness.run_scenario(lab, scenario, defense, spoof_origin=args.spoof_origin)
    except ScenarioSetupFailed as exc:
        print(f"csrf-lab: {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    except OSError as exc:  # out of open_lab: no bind
        print(f"csrf-lab: cannot set up the lab: {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    if args.json:
        print(json.dumps(outcome.to_cell(), indent=2))
    else:
        verdict = "SUCCEEDED" if outcome.success else "failed"
        spoof = " with spoofed Origin" if outcome.spoof else ""
        print(
            f"{scenario.value} under {defense.value}{spoof}: attack {verdict} "
            f"(status {outcome.http_status}, {len(outcome.evidence)} forged post(s))"
        )
        print(f"  {outcome.notes}")
    return EXIT_OK


def _format_grid(report: harness.MatrixReport) -> str:
    lines = [f"{'scenario':<10}{'defense':<17}{'spoof':<7}{'result':<9}status"]
    for cell in report.grid:
        lines.append(
            f"{cell.scenario.value:<10}{cell.defense.value:<17}"
            f"{'yes' if cell.spoof else '-':<7}"
            f"{'success' if cell.success else 'failure':<9}{cell.http_status}"
        )
    return "\n".join(lines)


def _cmd_matrix(args) -> int:
    try:
        report = harness.run_matrix(seed=args.seed)
    except OSError as exc:  # out of open_lab: no bind
        print(f"csrf-lab: cannot set up the lab: {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    print(_format_grid(report))
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"csrf-lab: cannot write report: {exc}", file=sys.stderr)
            return EXIT_SETUP_ERROR
        print(f"report written to {args.json}")
    dead = [c for c in report.grid if c.notes.startswith("ScenarioSetupFailed")]
    if dead:
        for cell in dead:
            print(f"csrf-lab: {cell.scenario.value}/{cell.defense.value}: {cell.notes}",
                  file=sys.stderr)
        return EXIT_SETUP_ERROR
    problems = harness.compare_with_expected(report)
    if problems:
        for problem in problems:
            print(f"csrf-lab: {problem}", file=sys.stderr)
        return EXIT_GRID_MISMATCH
    print(f"matrix matches the expected grid ({len(report.grid)} cells)")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    try:
        paths = fixtures.emit_fixtures(args.emit)
    except OSError as exc:
        print(f"csrf-lab: {exc}", file=sys.stderr)
        return EXIT_SETUP_ERROR
    for path in paths:
        print(path)
    return EXIT_OK


_COMMANDS = {
    "serve": _cmd_serve,
    "attack": _cmd_attack,
    "matrix": _cmd_matrix,
    "fixtures": _cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

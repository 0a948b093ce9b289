"""Self-contained CSRF laboratory.

A deliberately vulnerable forum service, an embedded-browser emulator,
a forged HTTP client, and a harness that replays four cross-site
request forgery scenarios against four server-side defenses.
"""

# Every csrf-lab command is a fresh process, so the package keeps its
# import cheap: its records are typing.NamedTuples, never dataclasses.
# Each is built once with all its fields; a changed record is a new one
# (_replace).  The one __slots__ class, forum.TokenSource, holds a
# counter that really changes.  On Python 3.11, importing dataclasses
# (with inspect, ast and dis) and applying @dataclass to the package's
# 20 records cost about a fifth of "import csrflab.cli": 65 ms with
# them, 52 ms without (-X importtime medians of 40 alternating runs).
#
# For the same reason, a module that a clean run never executes is
# imported where it is used, not at the top of the module that uses it:
# logging (a malformed Set-Cookie, a dropped auto-submit, a 500),
# tempfile (serve's snapshot), signal (serve) and base64 (a base64
# load_data document).  Loaded at the top, with logging's traceback,
# tokenize, textwrap and string, they added 10-19 ms to "import
# csrflab.cli" under python -S, where no .pth file preloads any of them:
# 74 against 64 ms and 119 against 100 ms (-X importtime medians of two
# sets of 40 alternating runs on Python 3.11), and 0.5 MiB to the peak
# RSS of a process that runs matrices.

__version__ = "0.1.0"

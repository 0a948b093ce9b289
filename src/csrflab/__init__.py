"""Self-contained CSRF laboratory.

A deliberately vulnerable forum service, an embedded-browser emulator,
a forged HTTP client, and a harness that replays four cross-site
request forgery scenarios against four server-side defenses.
"""

# Every csrf-lab command is a fresh process, so the package keeps its
# import cheap: its records are typing.NamedTuples (frozen values) and
# __slots__ classes (mutable ones), never dataclasses.  On Python 3.11,
# importing dataclasses (with inspect, ast and dis) and applying
# @dataclass to the package's 20 records cost about a fifth of
# "import csrflab.cli": 65 ms with them, 52 ms without (-X importtime
# medians of 40 alternating runs).

__version__ = "0.1.0"

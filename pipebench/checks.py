"""Output checks: content digests and the pinned references.

The events digest is order-insensitive and covers every column of
``events`` except ``id``, read through ``events`` by column name.  A
storage change that keeps an ``events`` table or view with the same
logical rows keeps the digest; anything that adds, drops or edits a
row, or a value in it, changes it.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def events_digest(db_path: Path) -> dict:
    """``{"rows": n, "sha256": hex}`` of the logical ``events`` content."""
    connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        columns = sorted(row[1] for row in
                         connection.execute("PRAGMA table_info(events)")
                         if row[1] != "id")
        cursor = connection.execute(
            f"SELECT {', '.join(columns)} FROM events")
        hashes = sorted(hashlib.sha1(repr(row).encode("utf-8")).digest()
                        for row in cursor)
    finally:
        connection.close()
    total = hashlib.sha256(",".join(columns).encode("utf-8"))
    for row_hash in hashes:
        total.update(row_hash)
    return {"rows": len(hashes), "sha256": total.hexdigest()}


def row_count(db_path: Path) -> int:
    connection = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        return connection.execute("SELECT count(*) FROM events").fetchone()[0]
    finally:
        connection.close()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references(path: Path = REFERENCES) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def reference(config: str, scale: float, seed: int,
              path: Path = REFERENCES) -> dict | None:
    """Pinned ``{"low", "midhigh", "report"}`` for one run, if any."""
    return (load_references(path).get(config, {}).get(repr(scale), {})
            .get(str(seed)))


def compare_dbs(pinned: dict | None, low_db: Path,
                midhigh_db: Path) -> list[str]:
    """Problems found comparing both databases with ``pinned``."""
    if pinned is None:
        return ["no pinned reference for this configuration and seed"]
    problems = []
    for tier, path in (("low", low_db), ("midhigh", midhigh_db)):
        got = events_digest(path)
        if got != pinned[tier]:
            problems.append(f"{tier} events digest {got} != pinned "
                            f"{pinned[tier]}")
    return problems


def compare_report(pinned: dict | None, texts: list[str]) -> list[str]:
    """Problems found comparing report texts (cold first, then warm)
    with each other and with ``pinned``."""
    problems = []
    if any(text != texts[0] for text in texts[1:]):
        problems.append("cold and warm report texts differ")
    if pinned is None:
        problems.append("no pinned report for this configuration and seed")
    elif text_digest(texts[0]) != pinned["report"]:
        problems.append(f"report digest {text_digest(texts[0])} != pinned "
                        f"{pinned['report']}")
    return problems

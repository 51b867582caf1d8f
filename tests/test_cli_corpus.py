"""The CLI's bytes and exit codes, replayed from ``cli_corpus.jsonl``.

The corpus is written by ``make_cli_corpus.py``; a change that moves output
on purpose rewrites it and says which lines moved.
"""
import json

from make_cli_corpus import CORPUS, record


def test_every_corpus_call_gives_its_recorded_bytes_and_exit_code():
    moved = []
    for line in CORPUS.read_text().splitlines():
        entry = json.loads(line)
        if record(entry["argv"]) != entry:
            moved.append(entry["argv"])
    assert not moved, f"{len(moved)} calls moved, first {moved[:5]}"

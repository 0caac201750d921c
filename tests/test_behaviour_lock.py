"""The behaviour lock: every seeded corpus of ``scripts/behaviour_lock.py``
still gives the digests committed in ``tests/behaviour_lock.json``. A change
that alters behaviour on purpose regenerates them with
``python3 scripts/behaviour_lock.py --write`` and lists the changed chunks."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "behaviour_lock.py"
_spec = importlib.util.spec_from_file_location("behaviour_lock", _PATH)
lock = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lock)


@pytest.mark.parametrize("corpus", sorted(lock.CORPORA))
def test_corpus_matches_the_committed_digests(corpus):
    assert lock.mismatches(corpus, lock.committed()[corpus]) == []

"""Pinned built-in English stopword list.

Fixed so that runs are reproducible; override with a one-term-per-line
UTF-8 file via :func:`load_stopwords`.
"""

from __future__ import annotations

from pathlib import Path

from .data import read_lines

DEFAULT_STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because
been before being below between both but by could did do does doing down
during each few for from further had has have having he her here hers
herself him himself his how i if in into is it its itself just me more
most my myself no nor not now of off on once only or other our ours
ourselves out over own same she should so some such than that the their
theirs them themselves then there these they this those through to too
under until up very was we were what when where which while who whom why
will with you your yours yourself yourselves
""".split())


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword override file: one lowercase term per line."""
    terms = []
    for line in read_lines(path):
        term = line.strip()
        if term:
            terms.append(term.lower())
    return frozenset(terms)

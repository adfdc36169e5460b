"""Porter suffix-stripping stemmer, dependency-free.

Classic five-step English stemmer. Operates on lowercase alphabetic
words; anything shorter than 3 characters is returned unchanged.
"""

from __future__ import annotations

import functools

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences ([C](VC)^m[V] form)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant, final consonant not w, x, or y
    if len(word) < 3:
        return False
    n = len(word)
    return (
        _is_consonant(word, n - 3)
        and not _is_consonant(word, n - 2)
        and _is_consonant(word, n - 1)
        and word[-1] not in "wxy"
    )


def _replace_longest(word, rules, min_measure):
    """Apply the longest-matching (suffix, replacement) rule.

    Only the longest matching suffix is considered; if its measure
    condition fails no other rule fires (Porter's convention).
    """
    best = None
    for suffix, repl in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl)
    if best is None:
        return word
    suffix, repl = best
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + repl
    return word


_STEP1A_RULES = [("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")]

_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_RULES = [(suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)]


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and not stripped.endswith(("l", "s", "z")):
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step4(word: str) -> str:
    # no other suffix ends in "ion", so it is the longest match whenever it matches;
    # it drops only after s or t
    if word.endswith("ion") and not word.endswith(("sion", "tion")):
        return word
    return _replace_longest(word, _STEP4_RULES, 1)


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=1 << 16)
def stem(word: str) -> str:
    """Stem one lowercase alphabetic word.

    Memoized: a caption corpus repeats a few thousand distinct words many
    times over, and the result is an immutable str of the word alone.
    """
    if len(word) <= 2:
        return word
    word = _replace_longest(word, _STEP1A_RULES, -1)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2_RULES, 0)
    word = _replace_longest(word, _STEP3_RULES, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word

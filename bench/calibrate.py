"""Host-speed reference for calibrated timings.

The benchmark host is shared: for minutes at a time all Python code on it
runs up to a half slower, and CPU time tracks wall time, so the slowdown is
not waiting. Code with a large heap slows down more than code with a small
one. A fixed pure-Python loop with a heap of a few MiB, run by `run.py`
between the worker's verdicts on the same vCPU, slows down by nearly the
same factor as the verdicts. A calibrated time is

    wall time * NOMINAL_S / host_loop time

the wall time the work would take if the loop ran at its nominal speed. The
loop tokenizes fixed text into frozen dataclasses and indexes them, the same
mix of work as ontoarch's front end and resolver; it never changes, so
calibrated timings of two commits compare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: About the time of `host_loop` when the host runs fastest (2.1 GHz Xeon
#: vCPU, CPython 3.11). A fixed constant: it only sets the scale.
NOMINAL_S = 0.1

_TEXT = "".join(
    f'term T{i} enriches Mod.C{i * 7919 % 5000} {{ description "text {i:08x}" }}\n' for i in range(6000)
)


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def host_loop() -> float:
    """Wall seconds to tokenize `_TEXT`, index the tokens and look them up."""
    start = time.perf_counter()
    tokens = []
    text, n = _TEXT, len(_TEXT)
    i, line, col = 0, 1, 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch == " ":
            col, i = col + 1, i + 1
            continue
        j = i + 1
        if ch.isalpha():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch == '"':
            j = text.index('"', j) + 1
        tokens.append(_Token(text[i:j], line, col))
        col, i = col + j - i, j
    index: dict[str, list[int]] = {}
    for k, token in enumerate(tokens):
        index.setdefault(token.text, []).append(k)
    for token in tokens[::3]:
        index[token.text]
    return time.perf_counter() - start

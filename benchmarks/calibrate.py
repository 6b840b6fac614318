"""A fixed task that measures how fast the machine runs at the moment.

It uses no part of elicitrec, so no change to the program moves its time.
Like a CLI command, it starts the interpreter, imports numpy, runs
interpreted loops over small numpy arrays and dicts, and writes JSON.
run.py runs it as a subprocess between timed steps and scales each
step's time by the calibrations around it (see SPEED in run.py).
"""

import json

import numpy as np

rng = np.random.default_rng(0)
x = rng.integers(0, 5, size=(300, 16))
y = rng.integers(0, 2, size=300)
tally: dict[int, int] = {}
for i in range(8000):
    column = x[:, i % 16]
    counts = np.bincount(column[y == i % 2], minlength=5)
    key = int(counts.argmax()) * 97 + i % 97
    tally[key] = tally.get(key, 0) + int(counts.sum())
text = json.dumps({str(k): v for k, v in sorted(tally.items())})
assert len(json.loads(text)) == len(tally)

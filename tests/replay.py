"""Fixed draws for the explicit examples of properties that draw from
`st.data()`.

Hypothesis makes no `st.data()` object for an `@example`, so a property's
explicit example passes `Replay(*values)` as its data: each call of the
test draws `values` in order, whatever strategy it asks for, and raises
IndexError if it asks for more.  A call is told apart by its Hypothesis
build context, so a property that pytest parametrises draws the values
from the first again for each parameter.  The values should be valid on
every parameter (small ints are canonical on Z, Q and GF(5)).
"""

from hypothesis.control import current_build_context


class Replay:
    def __init__(self, *values):
        self.values = values
        self._run, self._at = None, 0

    def __repr__(self):
        return f"Replay{self.values!r}"

    def draw(self, strategy, label=None):
        run = current_build_context()
        if run is not self._run:
            self._run, self._at = run, 0
        self._at += 1
        return self.values[self._at - 1]

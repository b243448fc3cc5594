"""Message-send entrypoints: a racy module-state path and the clean
per-process ``Outbox`` shape the real engine uses."""

from partitioned.state import OUTBOX, SEQ_COUNTERS


def send_shared(sender, target, message):
    seq = SEQ_COUNTERS.get(sender, 0)
    SEQ_COUNTERS[sender] = seq + 1
    OUTBOX.append((target, sender, seq, message))


class Outbox:
    """Per-process buffers, built after the fork."""

    def __init__(self):
        self.batches = []
        self._seq = {}

    def send(self, sender, target, message):
        seq = self._seq.get(sender, 0)
        self._seq[sender] = seq + 1
        self.batches.append((target, sender, seq, message))

"""The shard worker loop: recv commands, send batches back over pipes."""

from partitioned.exchange import Outbox, send_shared


def shard_main(task_conn, result_conn):
    outbox = Outbox()
    while True:
        command = task_conn.recv()
        if command is None:
            return
        send_shared(0, command["target"], command["message"])
        outbox.send(1, command["target"], command["message"])
        result_conn.send({"shard": 0, "batches": list(outbox.batches)})

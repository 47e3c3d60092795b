"""Attacker-side protocol clients.

The synthetic actor population speaks to the honeypots through these
clients, which implement the *client* half of each wire protocol.  They
run over any :class:`~repro.clients.wire.Wire`: the in-process
``MemoryWire`` during fast simulation, or :class:`~repro.clients.wire.TcpWire`
against real sockets.
"""

from repro.clients.wire import TcpWire, Wire, WireError
from repro.clients.mysql_client import MySQLClient
from repro.clients.postgres_client import PostgresClient
from repro.clients.redis_client import RedisClient
from repro.clients.mssql_client import MSSQLClient
from repro.clients.elastic_client import ElasticClient
from repro.clients.mongo_client import MongoClient

__all__ = [
    "Wire",
    "TcpWire",
    "WireError",
    "MySQLClient",
    "PostgresClient",
    "RedisClient",
    "MSSQLClient",
    "ElasticClient",
    "MongoClient",
]

"""The production front door: HTTP/JSON gateway + warm-standby follower.

Two subsystems that turn the TCP reservation service into a deployable
one (``docs/gateway.md``):

* :mod:`repro.gateway.app` — an asyncio HTTP/1.1 server fronting the
  actor with JSON endpoints, bearer-token tenancy,
  per-tenant token-bucket rate limits and Prometheus ``/metrics``.
* :mod:`repro.gateway.follower` — a replication client that tails the
  primary's rid-keyed decision log to maintain a warm standby calendar,
  promotable to a serving primary with ``repro promote``.
"""

from .app import Gateway, GatewayConfig, serve_gateway
from .auth import TenantLimiter, TokenBucket, TokenTable
from .follower import Follower, FollowerConfig, serve_follower
from .prom import PromRegistry

__all__ = [
    "Follower",
    "FollowerConfig",
    "Gateway",
    "GatewayConfig",
    "PromRegistry",
    "TenantLimiter",
    "TokenBucket",
    "TokenTable",
    "serve_follower",
    "serve_gateway",
]

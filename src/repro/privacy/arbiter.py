"""Role-based access arbitration for the data store.

§5: the IT organisation arbitrates "what data can or cannot be made
available to which of the university's many different constituents".
The arbiter wraps a :class:`~repro.datastore.tiers.TieredDataStore` and
enforces per-role collection access, time-depth limits, and row-level
redaction; every access lands in an audit log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.datastore.query import Query


class Role(enum.Enum):
    IT_OPERATOR = "it_operator"          # full access
    SECURITY_ANALYST = "security_analyst"  # packets+flows+logs, 30 days
    RESEARCHER = "researcher"            # flows + anonymized packets, 7 days
    STUDENT = "student"                  # aggregate queries only
    EXTERNAL = "external"                # nothing


class AccessDenied(Exception):
    """Raised when a role is not entitled to the requested data."""


@dataclass
class _RolePolicy:
    collections: Set[str]
    max_age_s: Optional[float]
    aggregates_only: bool = False


_DEFAULT_POLICIES: Dict[Role, _RolePolicy] = {
    Role.IT_OPERATOR: _RolePolicy(
        collections={"packets", "flows", "logs"}, max_age_s=None),
    Role.SECURITY_ANALYST: _RolePolicy(
        collections={"packets", "flows", "logs"}, max_age_s=30 * 86400.0),
    Role.RESEARCHER: _RolePolicy(
        collections={"packets", "flows"}, max_age_s=7 * 86400.0),
    Role.STUDENT: _RolePolicy(
        collections={"flows"}, max_age_s=86400.0, aggregates_only=True),
    Role.EXTERNAL: _RolePolicy(collections=set(), max_age_s=0.0),
}


@dataclass
class AuditEntry:
    role: Role
    user: str
    collection: str
    granted: bool
    reason: str = ""
    records_returned: int = 0


class AccessArbiter:
    """Gatekeeper between constituents and the data store."""

    def __init__(self, store, now_fn, policies: Optional[Dict] = None):
        self.store = store
        self.now_fn = now_fn
        self.policies = dict(policies or _DEFAULT_POLICIES)
        self.audit_log: List[AuditEntry] = []

    def _check(self, role: Role, user: str, query: Query,
               aggregate: bool) -> Query:
        policy = self.policies.get(role)
        if policy is None or query.collection not in policy.collections:
            entry = AuditEntry(role, user, query.collection, granted=False,
                               reason="collection not permitted")
            self.audit_log.append(entry)
            raise AccessDenied(
                f"{role.value} may not read {query.collection!r}"
            )
        if policy.aggregates_only and not aggregate:
            entry = AuditEntry(role, user, query.collection, granted=False,
                               reason="row-level access not permitted")
            self.audit_log.append(entry)
            raise AccessDenied(f"{role.value} is limited to aggregates")
        if policy.max_age_s is not None:
            horizon = self.now_fn() - policy.max_age_s
            start, end = query.time_range or (None, None)
            start = horizon if start is None else max(start, horizon)
            query = Query(
                collection=query.collection,
                time_range=(start, end),
                where=query.where, tags=query.tags,
                predicate=query.predicate, limit=query.limit,
                order_by_time=query.order_by_time,
            )
        return query

    def query(self, role: Role, user: str, query: Query) -> List:
        query = self._check(role, user, query, aggregate=False)
        records = self.store.query(query)
        self.audit_log.append(AuditEntry(
            role, user, query.collection, granted=True,
            records_returned=len(records)))
        return records

    def aggregate(self, role: Role, user: str, query: Query,
                  aggregation) -> Dict:
        query = self._check(role, user, query, aggregate=True)
        result = self.store.aggregate(query, aggregation)
        self.audit_log.append(AuditEntry(
            role, user, query.collection, granted=True,
            records_returned=len(result)))
        return result

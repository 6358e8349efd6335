"""Profiling substrate: destination/UA histories and rare destinations."""

from .history import DestinationHistory
from .rare import DailyTraffic, extract_rare_domains
from .ua import UserAgentHistory

__all__ = [
    "DestinationHistory",
    "DailyTraffic",
    "extract_rare_domains",
    "UserAgentHistory",
]

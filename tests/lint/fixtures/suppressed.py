"""Fixture: suppression comments — line, file, and malformed.

The file-level waiver covers RPR202; the line waivers cover one RPR601
site; the unsuppressed datetime.now() and the blanket noqa must still
be reported.
"""
# repro: noqa-file[RPR202]

from datetime import datetime
from time import perf_counter


def timed():
    """One waived clock read, one live one, one blanket comment."""
    t0 = perf_counter()  # repro: noqa[RPR601] — telemetry-only timing
    stamp = datetime.now()  # still RPR601: not waived
    try:
        return t0, stamp
    except:  # waived by the file-level noqa-file[RPR202]
        pass
    value = 1  # repro: noqa — malformed: RPR002, names no codes
    return value

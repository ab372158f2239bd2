"""AddressSanitizer baseline (software shadow-memory protection)."""

from repro.asan.runtime import ASanScheme, QUARANTINE_CAP
from repro.asan.shadow import (REDZONE, GRANULE, granule_ok, object_shadow,
                               shadow_address)

__all__ = ["ASanScheme", "REDZONE", "QUARANTINE_CAP", "GRANULE",
           "shadow_address", "granule_ok", "object_shadow"]

"""Single source of the package version.

Kept in its own leaf module (instead of ``repro/__init__``) so low-level
modules — notably :mod:`repro.cache.fingerprint`, which salts every
cache key with the version — can import it without pulling the whole
public API and creating an import cycle.

Compatibility policy (see README §Versioning): the modules re-exported
by :mod:`repro.api` are stable within a major version; the version
string participates in cache fingerprints, so *any* bump invalidates
previously cached encode results by construction.
"""

__version__ = "2.0.0"

"""provsig: build-provenance signatures for ELF program binaries.

Generate signatures from compiler and library files (relocation-masked
code patterns, .comment strings, MD5-of-.text records), store them in
an annotated database, and scan binaries to recover which compilers and
libraries they were built from.
"""

__version__ = "0.1.0"

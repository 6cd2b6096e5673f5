"""provsig: build-provenance signatures for ELF program binaries.

Generate signatures from compiler and library files (relocation-masked
code patterns, .comment strings, MD5-of-.text records), store them in
an annotated database, and scan binaries to recover which compilers and
libraries they were built from.
"""

__version__ = "0.1.0"

from provsig.elf import (  # noqa: F401
    ArchiveMember,
    ElfImage,
    MalformedArchive,
    MalformedElf,
    RelocationEntry,
    Section,
    UnsupportedElf,
    get_section,
    list_text_sections,
    parse_archive,
    parse_comment,
    parse_elf,
    parse_relocations,
)
from provsig.matcher import (  # noqa: F401
    CompiledEngine,
    Match,
    MatchSet,
    scan_all,
)
from provsig.sigdb import (  # noqa: F401
    Database,
    EmptyDatabase,
    MalformedSigFile,
    SignatureFile,
    load_db,
    parse_sigfile,
    write_sigfile,
)
from provsig.siggen import (  # noqa: F401
    ANY,
    Gap,
    HexPattern,
    MaskedText,
    Rejected,
    Signature,
    build_pattern,
    mask_text,
    sign_archive,
    sign_comments,
    sign_object,
    sign_shared_lib,
)
from provsig.symver import (  # noqa: F401
    DEFAULT_LABELS,
    LabelVersion,
    MalformedVerdef,
    VersionDef,
    compare_versions,
    library_versions,
    parse_verdef,
    split_label,
)

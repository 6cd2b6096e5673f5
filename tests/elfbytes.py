"""ELF bytes through provsig's one ELF reader.

provsig reads every ELF input from an open file: :func:`provsig.elf.read_elf`
reads its headers and :func:`provsig.elf.read_body` each body it uses.
A test that builds its input as bytes hands them over here, in an
anonymous temporary file, so that it runs through the same reader.
"""

from __future__ import annotations

import contextlib
import tempfile

from provsig import elf


def bytes_file(data: bytes):
    """An anonymous temporary file that holds ``data``; the caller closes it."""
    file = tempfile.TemporaryFile()
    file.write(data)
    file.flush()
    return file


@contextlib.contextmanager
def opened(data: bytes):
    """``(file, image)``: ``data`` in an anonymous temporary file and
    :func:`provsig.elf.read_elf`'s image of it; the file closes on exit."""
    with bytes_file(data) as file:
        yield file, elf.read_elf(file)


def read_with(data: bytes, read, *args):
    """``read(image, file, *args)`` over the ELF file that holds ``data``."""
    with opened(data) as (file, image):
        return read(image, file, *args)


def read_image(data: bytes) -> elf.ElfImage:
    """:func:`provsig.elf.read_elf`'s image of ``data``."""
    return read_with(data, lambda image, file: image)


def read_bytes(data: bytes) -> tuple[elf.ElfImage, list[bytes]]:
    """The image of ``data`` and each section's body, read by
    :func:`provsig.elf.read_body`."""
    return read_with(data, lambda image, file: (
        image, [elf.read_body(file, section) for section in image.sections]))


def body(data: bytes, name: str) -> bytes:
    """The body of the first section of ``data`` named ``name``."""
    return read_with(data, lambda image, file: elf.read_body(file, elf.get_section(image, name)))

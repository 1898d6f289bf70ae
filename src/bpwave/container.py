"""Flat binary container framing shared by the checkpoint and episode files.

Layout: magic bytes, u32 version, then a sequence of records. All integers
are little-endian u32, all floating payloads little-endian float64.
"""

import io
import math
import struct

import numpy as np


class ContainerFormatError(ValueError):
    pass


class BadMagicError(ContainerFormatError):
    pass


class BadVersionError(ContainerFormatError):
    pass


class TruncatedContainerError(ContainerFormatError):
    pass


def write_header(fh, magic, version):
    fh.write(magic)
    fh.write(struct.pack("<I", version))


def read_header(fh, magic, expected_version):
    got = fh.read(len(magic))
    if got != magic:
        raise BadMagicError(f"bad magic: expected {magic!r}, got {got!r}")
    raw = fh.read(4)
    if len(raw) != 4:
        raise TruncatedContainerError("file truncated inside the header")
    (version,) = struct.unpack("<I", raw)
    if version != expected_version:
        raise BadVersionError(f"unsupported format version {version}, expected {expected_version}")
    return version


def write_u32(fh, value):
    fh.write(struct.pack("<I", int(value)))


def read_u32(fh, context):
    raw = fh.read(4)
    if len(raw) != 4:
        raise TruncatedContainerError(f"file truncated while reading {context}")
    return struct.unpack("<I", raw)[0]


def write_string(fh, text):
    payload = text.encode("utf-8")
    write_u32(fh, len(payload))
    fh.write(payload)


def file_end(fh):
    """Offset of the end of a seekable file; the read position is kept."""
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end


def _check_declared(fh, n, end, context):
    """A declared size past end, the file's end, fails before any buffer of
    that size is requested."""
    if n > end - fh.tell():
        raise TruncatedContainerError(f"file truncated while reading {context}")


def read_string(fh, context):
    return read_string_within(fh, file_end(fh), context)


def read_string_within(fh, end, context):
    """read_string for a caller that measured the file end once (file_end):
    a reader of many records seeks once, not per record."""
    n = read_u32(fh, f"{context} length")
    _check_declared(fh, n, end, context)
    return fh.read(n).decode("utf-8")


def write_f64_block(fh, values):
    fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_f64_block(fh, shape, context):
    return read_f64_block_within(fh, file_end(fh), shape, context)


def read_f64_block_within(fh, end, shape, context):
    """A fresh, writable float64 array of the given shape (an int for 1-D),
    read from the file straight into its memory: its own, not a view. end is
    the file's end, as in read_string_within."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    _check_declared(fh, 8 * math.prod(shape), end, context)
    values = np.empty(shape, dtype="<f8")
    if fh.readinto(values) != values.nbytes:
        raise TruncatedContainerError(f"file truncated while reading {context}")
    return values

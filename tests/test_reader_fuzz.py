"""Corrupted containers and signal CSVs fail only with ValueError.

ContainerFormatError is a ValueError, so the CLI maps every such failure to
exit 2. A read that happens to succeed (a flip inside a payload) is fine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpwave import datapipe, models, tensorops


@st.composite
def corruptions(draw, raw):
    """raw cut short at a drawn offset, or with one to three distinct bits flipped."""
    if draw(st.booleans()):
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3, unique=True)):
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# two levels and a 4-sample input keep the checkpoint at a few hundred bytes,
# so most flips land in names, ranks and dims rather than in payloads
TINY_UNET = models.UNet1DConfig(filters_per_level=(2, 3), input_length=4)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pristine")
    ckpt = folder / "net.ckpt"
    tensorops.write_checkpoint(ckpt, models.build_unet1d(TINY_UNET, seed=0).checkpoint_entries())
    store = folder / "store.p2a"
    datapipe.write_store(store, datapipe.synth_generate(1, seed=0))
    return folder, ckpt.read_bytes(), store.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_fails_only_with_value_errors(pristine, data):
    folder, raw, _ = pristine
    path = folder / "corrupt.ckpt"
    path.write_bytes(data.draw(corruptions(raw)))
    try:
        models.build_unet1d(TINY_UNET, seed=None).load_state(tensorops.read_checkpoint(path))
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_store_fails_only_with_value_errors(pristine, data):
    folder, _, raw = pristine
    path = folder / "corrupt.p2a"
    path.write_bytes(data.draw(corruptions(raw)))
    try:
        datapipe.read_store(path)
    except ValueError:
        pass


CSV_TEXT = "ppg,abp,subject_id\n" + "".join(f"0.{i},9{i},s{i // 2}\n" for i in range(4))
CSV_ALPHABET = ',"\r\n 0123456789.e-_xs\x00\u00e9'


@st.composite
def csv_corruptions(draw):
    """CSV_TEXT as UTF-8 with one to three insertions: a few drawn characters,
    a few drawn bytes, or a 140,000-byte run of one drawn character, past the
    csv module's 131,072-character field size limit."""
    raw = bytearray(CSV_TEXT.encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw)))
        kind = draw(st.sampled_from(["text", "bytes", "run"]))
        if kind == "text":
            piece = draw(st.text(CSV_ALPHABET, min_size=1, max_size=6)).encode()
        elif kind == "bytes":
            piece = draw(st.binary(min_size=1, max_size=4))
        else:
            piece = draw(st.sampled_from('x9,"\n ')).encode() * 140_000
        raw[at:at] = piece
    return bytes(raw)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_signal_csv_fails_only_with_value_errors(pristine, data):
    folder = pristine[0]
    path = folder / "corrupt.csv"
    path.write_bytes(data.draw(csv_corruptions()))
    try:
        datapipe.read_signal_csv(path)
    except ValueError:
        pass

"""Size arithmetic of the model-file loaders on headers from outside the program."""

import json
import struct

import pytest

from leanformer.modelfile import MAGIC, VERSION_FLOAT64, VERSION_INT8, load_model, load_quantized_model


@pytest.mark.parametrize("version, loader", [(VERSION_FLOAT64, load_model),
                                             (VERSION_INT8, load_quantized_model)])
def test_dims_whose_product_wraps_int64_read_as_truncated(tmp_path, version, loader):
    # tok_emb is 2**32 x 2**32: its element count wraps to 0 in int64
    doc = {"vocab_size": 2**32, "max_seq_len": 1, "d_model": 2**32,
           "n_heads": 1, "d_ff": 1, "n_layers": 0}
    config = json.dumps(doc).encode("utf-8")
    tag = b"" if version == VERSION_FLOAT64 else struct.pack("<I", 4) + b"int8"
    path = tmp_path / "huge.retf"
    path.write_bytes(MAGIC + struct.pack("<I", version) + tag
                     + struct.pack("<I", len(config)) + config + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        loader(path)

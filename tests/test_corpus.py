import numpy as np
import pytest

import corpus


def test_kernel_digests_match_the_committed_file():
    # the conjugate kernel's outputs over the seeded corpus, byte for byte;
    # `python tests/corpus.py --write` regenerates the file
    stored = corpus.load()
    if stored["numpy"] != np.__version__:
        pytest.fail(f"kernel_digests.json was made with numpy {stored['numpy']}, this is "
                    f"{np.__version__}: the digests are not comparable; regenerate the file "
                    "at a commit whose outputs are trusted")
    now = corpus.digests()
    assert set(now) == set(stored["digests"])
    changed = sorted(k for k in now if now[k] != stored["digests"][k])
    assert changed == [], f"outputs changed: {changed}"


def test_a_digest_file_from_another_numpy_fails_and_says_so(monkeypatch):
    monkeypatch.setattr(corpus, "load", lambda: {"numpy": "0.0", "digests": {}})
    with pytest.raises(pytest.fail.Exception, match="made with numpy 0.0, this is"):
        test_kernel_digests_match_the_committed_file()


def test_each_value_entry_has_one_digest_across_block_sizes():
    # the kernel's values and argmax do not depend on its block size; the
    # budget and refusal entries may, since windows are counted per block
    stored = corpus.load()["digests"]
    for entry in ("conjugate_1d", "conjugate_2d", "biconjugate", "moreau_envelope"):
        found = {stored[f"{entry}@{block}"] for block in corpus.BLOCKS}
        assert len(found) == 1, entry


def test_each_inf_convolution_entry_has_one_digest_across_tile_sizes():
    # the direct inf-convolution's values, argmin and refusals do not
    # depend on its tile size
    stored = corpus.load()["digests"]
    for entry in ("inf_convolution_1d", "inf_convolution_2d", "inf_convolution_refusals"):
        found = {stored[f"{entry}@{tile}"] for tile in corpus.TILES}
        assert len(found) == 1, entry

"""Caption tokenization and vocabulary."""

import re

BOS = "<BOS>"
EOS = "<EOS>"
UNK = "<UNK>"


def tokenize(text):
    """Lowercased runs of word characters: a word-punct split with its
    pure-punctuation tokens dropped."""
    return [tok.lower() for tok in re.findall(r"\w+", text)]


class Vocabulary:
    """Dense token -> index map with <BOS>, <EOS>, <UNK> at 0, 1 and 2."""

    def __init__(self, words):
        # first occurrence wins: a repeated word keeps its first index
        self.words = list(dict.fromkeys([BOS, EOS, UNK, *words]))
        self.index = {w: i for i, w in enumerate(self.words)}
        self.bos, self.eos, self.unk = 0, 1, 2

    def __len__(self):
        return len(self.index)

    def encode(self, tokens):
        return [self.index.get(t, self.unk) for t in tokens]

    def decode(self, ids):
        return [self.words[i] for i in ids]


def build_vocab(captions):
    """Vocabulary over a caption corpus; rare words are retained."""
    return Vocabulary(tok for caption in captions
                      for tok in tokenize(caption))

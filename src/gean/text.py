"""Caption tokenization and vocabulary."""

import re

from .errors import GeanError

BOS = "<BOS>"
EOS = "<EOS>"
UNK = "<UNK>"

_WORDPUNCT = re.compile(r"\w+|[^\w\s]+", re.UNICODE)


def tokenize(text):
    """Word-punct split, pure-punctuation tokens dropped, lowercased."""
    tokens = []
    for tok in _WORDPUNCT.findall(text):
        if re.search(r"\w", tok):
            tokens.append(tok.lower())
    return tokens


class Vocabulary:
    """Dense token -> index map with <BOS>, <EOS>, <UNK> reserved."""

    def __init__(self, words):
        # first occurrence wins: a repeated word keeps its first index
        self.words = list(dict.fromkeys([BOS, EOS, UNK, *words]))
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.index)

    @property
    def bos(self):
        return self.index[BOS]

    @property
    def eos(self):
        return self.index[EOS]

    @property
    def unk(self):
        return self.index[UNK]

    def encode(self, tokens):
        return [self.index.get(t, self.unk) for t in tokens]

    def decode(self, ids):
        return [self.words[i] for i in ids]


def build_vocab(captions):
    """Vocabulary over a caption corpus; rare words are retained."""
    vocab = Vocabulary(tok for caption in captions
                       for tok in tokenize(caption))
    if len(vocab) == 3:  # only <BOS>, <EOS>, <UNK>
        raise GeanError("empty caption corpus")
    return vocab

"""Tests for the tokenizer."""

from __future__ import annotations

from repro.textindex.tokenizer import DEFAULT_STOP_WORDS, tokenize


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Joe's Pizza & Pasta") == ["joe", "s", "pizza", "pasta"]

    def test_stop_words_removed(self):
        assert tokenize("the cafe on the corner") == ["cafe", "corner"]

    def test_custom_stop_words(self):
        assert tokenize("the cafe", stop_words=set()) == ["the", "cafe"]

    def test_min_length_filter(self):
        assert tokenize("a b cd efg", stop_words=set(), min_length=2) == ["cd", "efg"]

    def test_duplicates_preserved(self):
        assert tokenize("coffee coffee shop") == ["coffee", "coffee", "shop"]

    def test_numbers_kept(self):
        assert tokenize("7-eleven 24h") == ["7", "eleven", "24h"]

    def test_empty_string(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_default_stop_words_are_lowercase(self):
        assert all(word == word.lower() for word in DEFAULT_STOP_WORDS)


"""Bipartite matching, subsequence matching and grid embedding."""

from repro.util.matching import (
    bipartite_match,
    embedding_exists,
    injective_assignment_exists,
    multiset_match,
    subsequence_match,
)


class TestBipartite:
    def test_perfect_matching(self):
        edges = {(0, 1), (1, 0)}
        assign = bipartite_match(2, 2, lambda i, j: (i, j) in edges)
        assert assign == [1, 0]

    def test_augmenting_path_needed(self):
        # both left nodes prefer right 0; one must be rerouted
        edges = {(0, 0), (1, 0), (1, 1)}
        assign = bipartite_match(2, 2, lambda i, j: (i, j) in edges)
        assert assign == [0, 1]

    def test_infeasible(self):
        assert bipartite_match(2, 2, lambda i, j: j == 0) is None

    def test_left_larger_than_right(self):
        assert bipartite_match(3, 2, lambda i, j: True) is None

    def test_injective_exists(self):
        assert injective_assignment_exists(2, 3, lambda i, j: True)
        assert not injective_assignment_exists(2, 2, lambda i, j: i == j == 0)


class TestSubsequence:
    def test_basic(self):
        assert subsequence_match([1, 3], [1, 2, 3], lambda a, b: a == b)
        assert not subsequence_match([3, 1], [1, 2, 3], lambda a, b: a == b)

    def test_empty_needles(self):
        assert subsequence_match([], [1], lambda a, b: a == b)

    def test_needs_backtracking(self):
        # relation where greedy first match fails: needle 'x' matches both
        # haystack slots, 'y' only the first — must NOT consume it with 'x'
        rel = {("x", 0), ("x", 1), ("y", 1)}
        assert subsequence_match(["x", "y"], [0, 1],
                                 lambda a, b: (a, b) in rel)

    def test_too_many_needles(self):
        assert not subsequence_match([1, 1], [1], lambda a, b: a == b)


class TestMultiset:
    def test_subset_mode(self):
        assert multiset_match([1, 2], [2, 1, 3], lambda a, b: a == b)

    def test_exact_mode_requires_bijection(self):
        assert multiset_match([1, 2], [2, 1], lambda a, b: a == b, exact=True)
        assert not multiset_match([1], [1, 1], lambda a, b: a == b,
                                  exact=True)

    def test_distinctness(self):
        # two needles may not share one haystack element
        assert not multiset_match([1, 1], [1, 2], lambda a, b: a == b)


class TestEmbedding:
    def test_simple_embedding(self):
        grid = [["a", "b"], ["c", "d"]]
        demo = [["d"]]
        assert embedding_exists(
            1, 1, 2, 2, lambda i, j, r, c: demo[i][j] == grid[r][c])

    def test_rows_and_columns_injective(self):
        grid = [["a", "a"]]
        demo = [["a"], ["a"]]  # two rows cannot map to one grid row
        assert not embedding_exists(
            2, 1, 1, 2, lambda i, j, r, c: demo[i][j] == grid[r][c])

    def test_column_assignment_backtracks(self):
        # demo col 0 could take grid col 0 or 1; demo col 1 only col 0 —
        # the search must give col 0 to demo col 1.
        grid = [["x", "x"], ["y", "z"]]
        demo = [["x", "x"], ["z", "y"]]
        ok = embedding_exists(
            2, 2, 2, 2,
            lambda i, j, r, c: demo[i][j] == grid[r][c])
        assert ok

    def test_demo_bigger_than_grid(self):
        assert not embedding_exists(3, 1, 2, 2, lambda *a: True)
        assert not embedding_exists(1, 3, 2, 2, lambda *a: True)

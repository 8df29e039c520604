"""The workload generators are functions of the seed alone.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import pytest

import workloads


def written(tmp_path, name, seed):
    """Every file the workload writes for ``seed``, as {path: bytes}."""
    root = tmp_path / f"{name}-{seed}"
    workload = workloads.WORKLOADS[name](seed, "work")
    workload.write(root)
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in root.rglob("*") if p.is_file()}
    return files, workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_files(tmp_path, name):
    first, first_w = written(tmp_path / "a", name, 11)
    second, second_w = written(tmp_path / "b", name, 11)
    assert first and first == second
    assert first_w.ops == second_w.ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seeds_give_different_files(tmp_path, name):
    first, _ = written(tmp_path, name, 11)
    second, _ = written(tmp_path, name, 12)
    assert set(first) == set(second)
    assert first != second


@pytest.mark.parametrize("seed", range(20))
def test_sizes_do_not_depend_on_the_seed(tmp_path, seed):
    """Only names, shapes and probabilities vary, so every seed does a
    comparable amount of work."""
    for name in workloads.WORKLOADS:
        files, _ = written(tmp_path, name, seed)
        reference, _ = written(tmp_path, name, 0)
        for path, text in files.items():
            assert text.count(b"\n") == reference[path].count(b"\n"), path

import accuracy_sweep


def test_both_paths_stay_within_their_bounds_against_50_digits():
    # ROADMAP aim 3 asks that accuracy not drift with t, nu or the grid: each path's signed atom-pair value stays
    # within c eps (1 + rabi t) of 50-digit mpmath over the threshold, tiny-alpha, detuning, nu and long-time regions
    found = accuracy_sweep.sweep(60, seed=3)
    assert accuracy_sweep.over_bound(found) == {}
    assert all(errors.size == 12 * accuracy_sweep.POINTS for errors, _ in found.values())  # every region drawn

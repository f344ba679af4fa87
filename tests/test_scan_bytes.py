"""``measure`` writes the same CSV bytes for fixed configs and seeds.

Each config runs in-process and its CSV is compared with a literal, so a
change to any exact row or any seeded Monte Carlo stream shows here.  The
configs cover exact rows and both fallback causes (the iterate limit and
the branch budget) for each family, and a comparison tie a = b.
"""

import pytest

from cantorshift.cli import main

HEADER = "family,param,x_num,x_den,measure_num,measure_den,method,samples,halfwidth\n"

CASES = {
    # n = 9 is past the default iterate limit 8
    "itershift": (
        "family = itershift\nq = 2\nn = 7..9\nx = 1/3, 1/2\nsamples = 400\nseed = 5\n",
        "itershift,7,1,3,1,3,exact,,\n"
        "itershift,7,1,2,1,2,exact,,\n"
        "itershift,8,1,3,1,3,exact,,\n"
        "itershift,8,1,2,1,2,exact,,\n"
        "itershift,9,1,3,69,200,mc,400,0.0612234\n"
        "itershift,9,1,2,193,400,mc,400,0.0643563\n",
    ),
    # the chains delete up to positions 3, 6 and 8: 8, 64 and 256 branches against a budget of 40
    "genchain-tight-budget": (
        "family = genchain\nq = 2\nindices = 3,5,6\ncount = 1..3\nx = 2/5\nsamples = 400\nseed = 11\nbudget = 40\n",
        "genchain,1,2,5,2,5,exact,,\n"
        "genchain,2,2,5,169,400,mc,400,0.0636175\n"
        "genchain,3,2,5,41,100,mc,400,0.0633439\n",
    ),
    "schedulechain": (
        "family = schedulechain\nq = 3\npsi = 2,3,1\ncount = 1..3\nx = 1/3, 5/7\n",
        "schedulechain,1,1,3,1,3,exact,,\n"
        "schedulechain,1,5,7,5,7,exact,,\n"
        "schedulechain,2,1,3,1,3,exact,,\n"
        "schedulechain,2,5,7,5,7,exact,,\n"
        "schedulechain,3,1,3,1,3,exact,,\n"
        "schedulechain,3,5,7,5,7,exact,,\n",
    ),
    "compareiter-exact": (
        "family = compareiter\nq = 2\npsi = 2,3,1,4\nphi = 1,1,3,4\n",
        "compareiter,2:1,,,1,2,exact,,\n"
        "compareiter,3:1,,,1,2,exact,,\n"
        "compareiter,1:3,,,1,2,exact,,\n"
        "compareiter,4:4,,,0,1,exact,,\n",
    ),
    # every pair is past the iterate limit; the tie 10:10 samples only indeterminate draws
    "compareiter-fallback": (
        "family = compareiter\nq = 3\npsi = 9,10,12\nphi = 11,10,9\nsamples = 400\nseed = 2\n",
        "compareiter,9:11,,,13,25,mc,400,0.0643442\n"
        "compareiter,10:10,,,0,1,mc,400,0\n"
        "compareiter,12:9,,,99,200,mc,400,0.0643925\n",
    ),
}


@pytest.mark.parametrize("config, rows", CASES.values(), ids=CASES.keys())
def test_scan_csv_bytes(tmp_path, config, rows):
    cfg, out = tmp_path / "scan.cfg", tmp_path / "rows.csv"
    cfg.write_text(config + f"out = {out}\n")
    assert main(["measure", str(cfg)]) == 0
    assert out.read_bytes() == (HEADER + rows).encode("ascii")

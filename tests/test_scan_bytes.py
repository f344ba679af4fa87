"""``measure`` writes the same CSV bytes for fixed configs and seeds.

Each config runs in-process and its CSV is compared with a literal, so a
change to any exact row or any seeded Monte Carlo stream shows here.  The
configs cover exact rows and both fallback causes (the iterate limit and
the branch budget) for each family, a comparison tie a = b, and q = 2 draws
of at most 32 bits, which are decided a round of words at a time.
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
    # q = 2 draws that fit one 32-bit word are decided a round of words at a
    # time; these pin that stream on every CI Python.  Lags 2, 14 and 15 draw
    # with seeds 12, 13 and 14; the first windows tie at sample 15147 of 9:11
    # and at sample 12917 of 12:27
    "compareiter-binary": (
        "family = compareiter\nq = 2\npsi = 9,24,12\nphi = 11,10,27\nsamples = 20000\nseed = 11\n",
        "compareiter,9:11,,,5023,10000,mc,20000,0.00910684\n"
        "compareiter,24:10,,,308,625,mc,20000,0.00910599\n"
        "compareiter,12:27,,,617,1250,mc,20000,0.00910619\n",
    ),
    # the chain 9,14 deletes positions 9 and 15: a 32-bit draw, the widest one word holds
    "genchain-binary-depth15": (
        "family = genchain\nq = 2\nindices = 9,14\ncount = 1..2\nx = 1/3, 5/7\nsamples = 5000\nseed = 3\nbudget = 100\n",
        "genchain,1,1,3,209,625,mc,5000,0.0171859\n"
        "genchain,1,5,7,3581,5000,mc,5000,0.0164231\n"
        "genchain,2,1,3,853,2500,mc,5000,0.0172708\n"
        "genchain,2,5,7,1807,2500,mc,5000,0.0163056\n",
    ),
}


@pytest.mark.parametrize("config, rows", CASES.values(), ids=CASES.keys())
def test_scan_csv_bytes(tmp_path, config, rows):
    cfg, out = tmp_path / "scan.cfg", tmp_path / "rows.csv"
    cfg.write_text(config + f"out = {out}\n")
    assert main(["measure", str(cfg)]) == 0
    assert out.read_bytes() == (HEADER + rows).encode("ascii")

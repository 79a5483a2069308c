#!/usr/bin/env python3
"""Summarises tools/pcsample.c sample files (docs/PERF.md section 6).

    python3 tools/pcsample_report.py <binary> <sample files...> \\
        [--cmd <text>] [--top N]

Resolves every sampled offset with `addr2line -a -i -f -C` against
<binary>, which must be the executable the samples came from, built with
-g.  Prints each function's share of the samples by its innermost
(possibly inlined) frame and by its outermost (real) frame, and each
source line's share by the innermost frame.  --cmd keeps only the files
whose recorded command line contains <text>.
"""

import argparse
import collections
import subprocess


def load(files, cmd):
    offs = collections.Counter()
    for path in files:
        with open(path) as f:
            head = f.readline()
            if cmd and cmd not in head:
                continue
            for line in f:
                if line.strip():
                    offs[int(line, 16)] += 1
    return offs


def resolve(binary, addrs):
    """Maps each address to its frames, innermost first: (function,
    file:line)."""
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="\n".join("0x%x" % a for a in addrs), text=True,
        stdout=subprocess.PIPE, check=True).stdout.splitlines()
    frames, i = {}, 0
    for a in addrs:
        i += 1  # the echoed address
        got = []
        while i + 1 < len(out) and not out[i].startswith("0x"):
            got.append((out[i], out[i + 1].split(" ")[0]))
            i += 2
        frames[a] = got or [("??", "??")]
    return frames


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("files", nargs="+")
    ap.add_argument("--cmd", default="")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    offs = load(args.files, args.cmd)
    total = sum(offs.values())
    frames = resolve(args.binary, sorted(offs))
    inner, outer, lines = (collections.Counter() for _ in range(3))
    for a, n in offs.items():
        fr = frames[a]
        inner[fr[0][0]] += n
        outer[fr[-1][0]] += n
        lines[fr[0][1].rsplit("/src/", 1)[-1]] += n
    print("%d samples" % total)
    for title, ctr in (("innermost function", inner),
                       ("outermost function", outer),
                       ("innermost line", lines)):
        print("\n== by %s" % title)
        for key, n in ctr.most_common(args.top):
            print("%6.2f%%  %s" % (100.0 * n / max(total, 1), key[:100]))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Reachability census: nothing ships that nothing runs.

Every `pub fn|struct|enum|trait|const|type` declared in the non-test part of a
file under crates/*/src (the lines before its first `#[cfg(test)]`) must be
named somewhere else: in another file, or again in the non-test part of its
own. A file whose top-level `pub` items are all unnamed elsewhere is reported
as a caller-less module. `use` statements are not callers (a re-export keeps
nothing alive) and neither is anything after `//` on a line: prose and doc
examples mention a name without running it. Run from the repository root;
exits 1 with the findings.
"""
import glob, re, sys
from collections import Counter

# name -> the reason it may stay without a textual caller.
ALLOW = {}

DECL = re.compile(r"^( *)pub (?:const |unsafe )*(?:fn|struct|enum|trait|const|type) (\w+)", re.M)
USE = re.compile(r"\b(?:pub )?use [^;]*;")
COMMENT = re.compile(r"//.*")
CALLERS = ("crates/*/src/**/*.rs", "crates/*/tests/*.rs", "crates/*/benches/*.rs",
           "src/**/*.rs", "tests/*.rs", "examples/*.rs", "perfbench/src/**/*.rs")

words = lambda text: Counter(re.findall(r"\w+", USE.sub("", COMMENT.sub("", text))))
named_in = {p: words(open(p).read()) for pat in CALLERS for p in glob.glob(pat, recursive=True)}
dead = []
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    shipped = open(path).read().split("#[cfg(test)]")[0]
    own = words(shipped)
    elsewhere = lambda name: any(name in w for p, w in named_in.items() if p != path)
    decls = DECL.findall(shipped)
    top = [name for indent, name in decls if not indent]
    if top and not any(map(elsewhere, top)):
        dead.append(f"{path}: caller-less module ({', '.join(top)})")
        continue
    dead += [f"{path}: {name}" for _, name in decls
             if own[name] <= 1 and not elsewhere(name) and name not in ALLOW]
print("\n".join(dead) or "reachability census: every pub item has a caller")
sys.exit(1 if dead else 0)

#!/usr/bin/env python3
"""Reachability census: nothing ships that nothing runs.

Every `pub fn|struct|enum|trait|const|type` declared in the non-test part of a
file under crates/*/src (the lines before its first `#[cfg(test)]`) must be
named somewhere else: in another file, or again in the non-test part of its
own. A file whose top-level `pub` items are all unnamed elsewhere is reported
as a caller-less module. `use` statements are not callers (a re-export keeps
nothing alive) and neither is anything after `//` on a line: prose and doc
examples mention a name without running it.

A `pub fn` must also have a call or path site — `name(`, `.name(`, `name::<`
or `::name` — other than a `fn name` declaration and outside its own file's
test module: a field or a plain word of the same name does not keep it
alive. Both rules match by name, so a finding is checked by hand. Run from
the repository root; exits 1 with the findings.
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

FN_DECL = re.compile(r"^ *pub (?:const |unsafe )*fn (\w+)", re.M)
SITE = re.compile(r"\b(\w+)\s*(?:\(|::<)|::(\w+)\b")
code = lambda text: USE.sub("", COMMENT.sub("", text))
words = lambda text: Counter(re.findall(r"\w+", code(text)))
sites = lambda text: Counter(a or b for a, b in SITE.findall(re.sub(r"\bfn\s+\w+", "fn", code(text))))
texts = {p: open(p).read() for pat in CALLERS for p in glob.glob(pat, recursive=True)}
named_in = {p: words(t) for p, t in texts.items()}
called_in = {p: sites(t) for p, t in texts.items()}
dead = []
for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    shipped = texts[path].split("#[cfg(test)]")[0]
    own, own_sites = words(shipped), sites(shipped)
    elsewhere = lambda name: any(name in w for p, w in named_in.items() if p != path)
    called = lambda name: own_sites[name] or any(name in c for p, c in called_in.items() if p != path)
    decls = DECL.findall(shipped)
    top = [name for indent, name in decls if not indent]
    if top and not any(map(elsewhere, top)):
        dead.append(f"{path}: caller-less module ({', '.join(top)})")
        continue
    unnamed = [name for _, name in decls
               if own[name] <= 1 and not elsewhere(name) and name not in ALLOW]
    dead += [f"{path}: {name}" for name in unnamed]
    dead += [f"{path}: {name} (no call or path site)" for name in FN_DECL.findall(shipped)
             if name not in unnamed and name not in ALLOW and not called(name)]
print("\n".join(dead) or "reachability census: every pub item has a caller")
sys.exit(1 if dead else 0)

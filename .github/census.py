#!/usr/bin/env python3
"""Reachability census: nothing ships that nothing runs.

Shipped code is the non-test part (the lines before the first `#[cfg(test)]`)
of every file under crates/*/src except the test rig, crates/contract/, and
the bench harness, crates/bench/, and of every file under src/, examples/ and
perfbench/src. Tests, benches, the bench harness and the test rig run shipped
code but do not keep it shipped: an item only they call belongs in the test
rig, the bench harness or a test module.

Every `pub fn|struct|enum|trait|const|type` declared in the shipped part of a
file under crates/*/src must be named somewhere else in shipped code: in
another file, or again in its own. A file whose top-level `pub` items are all
unnamed elsewhere is reported as a caller-less module. `use` statements are
not callers (a re-export keeps nothing alive) and neither is anything after
`//` on a line: prose and doc examples mention a name without running it.

A `pub fn` must also have a call or path site in shipped code — `name(`,
`.name(`, `name::<` or `::name` — other than a `fn name` declaration: a field
or a plain word of the same name does not keep it alive. A top-level `pub fn`
needs a site that is not a method call: `.name(` keeps only methods alive, so
a free function cannot live off a method that shares its name. Both rules
match by name, so a finding is checked by hand.

An item may stay without a shipped caller only by an ALLOW line keyed by its
file and name, which says why it must ship. An ALLOW line that names no
declared item, or whose item has gained a shipped caller, is stale and fails
the census too.

Hasher policy: a `HashMap` or `HashSet` anywhere under crates/ whose type
names a hasher (a third `HashMap` or second `HashSet` type argument), and any
`with_hasher` / `with_capacity_and_hasher` call, must be on HASHERS. A fixed
hasher is safe only for keys no client chooses: the registry's client table
is filled by registration alone, while ids arrive from clients and keep
SipHash.

Single-threaded core: the shipped part of crates/*/src,
src/ and examples/ names no `Arc`, `Rc`, `Mutex`, `RwLock`, `Atomic*`,
`OnceLock`, `parking_lot` or `bytes::` outside comments, `use` lines
included. Nothing that ships starts a thread, so nothing needs a lock, an
atomic or a shared refcount, and a cache behind `&self` is a `Cell`,
`RefCell` or `OnceCell`.

Infallible engines: the non-test part of the dense and sparse engines
(INFALLIBLE) must not name `CoreError` outside comments. Admission refuses
every input an engine could fail on, so an error path that comes back into
an engine goes through review here. Run from the repository root; exits 1
with the findings.
"""
import glob, re, sys
from collections import Counter

# (path, name) -> why the item must ship without a shipped caller.
RANGE_CHECK = "its assert! is the only range check on a pub config field"
DELETED_BY_E = "goes with ShardedSequencer (ROADMAP E)"
ALLOW = {
    ("crates/wire/src/frame.rs", "resync"):
        "recovery from outside input: the only way out of a corrupted length field",
    ("crates/wire/src/frame.rs", "buffered"):
        "the only read of the decoder's held bytes, which a transport checks before resync",
    ("crates/core/src/defense.rs", "with_ks_threshold"): RANGE_CHECK,
    ("crates/core/src/defense.rs", "with_drift_zscore"): RANGE_CHECK,
    ("crates/core/src/defense.rs", "with_collusion_threshold"): RANGE_CHECK,
    ("crates/core/src/defense.rs", "with_collusion_min_pairs"): RANGE_CHECK,
    ("crates/core/src/defense.rs", "with_collusion_confirmations"): RANGE_CHECK,
    ("crates/workload/src/adversarial/plan.rs", "with_attackers"): RANGE_CHECK,
    ("crates/core/src/sequencer/sharded.rs", "shard_count"): DELETED_BY_E,
    ("crates/core/src/sequencer/sharded.rs", "drive_with_shard_order"): DELETED_BY_E,
    ("crates/metrics/src/ras.rs", "partitioned_rank_agreement_score"): DELETED_BY_E,
    ("crates/metrics/src/ras.rs", "total"): DELETED_BY_E + ": PartitionedRas::total",
    ("crates/core/src/precedence.rs", "of"):
        "the only way outside tommy-core to build the Removal that pub remove_indices takes",
    ("crates/core/src/sequencer/online.rs", "record_session_counters"):
        "the only writer of OnlineStats' session fields: the session layer runs outside "
        "the sequencer",
    ("crates/core/src/sequencer/online.rs", "delay_estimate"):
        "the only read of what ExpectedDelay::Online learned for a client",
    ("crates/core/src/sequencer/online.rs", "mean_delay_estimate"):
        "the only read of what ExpectedDelay::Online learned over the fleet",
    ("crates/core/src/session.rs", "complete"):
        "the only read of the fin marker: a closed stream told from one wedged on a hole",
}

DECL = re.compile(r"^( *)pub (?:const |unsafe )*(?:fn|struct|enum|trait|const|type) (\w+)", re.M)
USE = re.compile(r"\b(?:pub )?use [^;]*;")
COMMENT = re.compile(r"//.*")
SHIPPED = ("crates/*/src/**/*.rs", "src/**/*.rs", "examples/*.rs", "perfbench/src/**/*.rs")
RIG = ("crates/contract/", "crates/bench/")  # the test rig and the bench harness

FN_DECL = re.compile(r"^( *)pub (?:const |unsafe )*fn (\w+)", re.M)
SITE = re.compile(r"\b(\w+)\s*(?:\(|::<)|::(\w+)\b")
FREE_SITE = re.compile(r"(?<!\.)\b(\w+)\s*(?:\(|::<)|::(\w+)\b")  # SITE minus `.name(`
code = lambda text: USE.sub("", COMMENT.sub("", text))
words = lambda text: Counter(re.findall(r"\w+", code(text)))
sites = lambda text, site=SITE: Counter(
    a or b for a, b in site.findall(re.sub(r"\bfn\s+\w+", "fn", code(text))))
non_test = lambda text: text.split("#[cfg(test)]")[0]
texts = {p: open(p).read() for pat in SHIPPED for p in glob.glob(pat, recursive=True)}
shipped = {p: non_test(t) for p, t in texts.items() if not p.startswith(RIG)}
named_in = {p: words(t) for p, t in shipped.items()}
called_in = {p: sites(t) for p, t in shipped.items()}
free_in = {p: sites(t, FREE_SITE) for p, t in shipped.items()}
found, declared = [], set()
for path in sorted(p for p in shipped if p.startswith("crates/")):
    own, own_sites, own_free = named_in[path], called_in[path], free_in[path]
    elsewhere = lambda name: any(name in w for p, w in named_in.items() if p != path)
    called = lambda name, top: (own_free if top else own_sites)[name] or any(
        name in c for p, c in (free_in if top else called_in).items() if p != path)
    decls = DECL.findall(shipped[path])
    declared |= {(path, name) for _, name in decls}
    top = [name for indent, name in decls if not indent]
    if top and not any(map(elsewhere, top)):
        found.append((path, None, f"{path}: caller-less module ({', '.join(top)})"))
        continue
    unnamed = [name for _, name in decls if own[name] <= 1 and not elsewhere(name)]
    found += [(path, name, f"{path}: {name} (no shipped caller)") for name in unnamed]
    found += [(path, name, f"{path}: {name} (no call or path site in shipped code)")
              for indent, name in FN_DECL.findall(shipped[path])
              if name not in unnamed and not called(name, not indent)]
dead = [line for path, name, line in found if (path, name) not in ALLOW]
stale = [f"ALLOW {path}: {name}: " + ("has a shipped caller" if (path, name) in declared
                                      else "names no declared pub item")
         for path, name in sorted(ALLOW) if (path, name) not in {(p, n) for p, n, _ in found}]

# (path, the field or binding the map is declared as) -> why a fixed hasher is safe.
HASHERS = {("crates/core/src/registry.rs", "slots"):
           "DistributionRegistry::slots: only registration inserts, so no submitter picks its keys"}

TYPED = re.compile(r"(\w+)?\s*:?\s*\b(HashMap|HashSet)\s*(?:::)?\s*<")
BUILT = re.compile(r"(?:(\w+)\s*(?::[^=]*)?=\s*)?\b(?:HashMap|HashSet)::(?:with_hasher|with_capacity_and_hasher)\b")

def type_args(text, start):
    """The top-level type arguments of the generic list opening at text[start - 1]."""
    depth, args = 1, [""]
    for i in range(start, len(text)):
        c = text[i]
        if c in "<([":
            depth += 1
        elif c in ">)]" and text[i - 1] != "-":  # `->` closes nothing
            depth -= 1
        if depth == 0:
            break
        if c == "," and depth == 1:
            args.append("")
        else:
            args[-1] += c
    return [a for a in args if a.strip()]

hashers = []
for path in sorted(glob.glob("crates/**/*.rs", recursive=True)):
    text = COMMENT.sub("", open(path).read())
    for m in TYPED.finditer(text):
        keys_and_values = 2 if m.group(2) == "HashMap" else 1
        args = type_args(text, m.end())
        if len(args) > keys_and_values and (path, m.group(1)) not in HASHERS:
            line = text.count("\n", 0, m.start()) + 1
            hashers.append(f"{path}:{line}: {m.group(2)} with a non-default hasher ({m.group(1) or 'unnamed'})")
    for m in BUILT.finditer(text):
        if (path, m.group(1)) not in HASHERS:
            line = text.count("\n", 0, m.start()) + 1
            hashers.append(f"{path}:{line}: map built with a hasher ({m.group(1) or 'unnamed'})")
SHARED = re.compile(r"\b(?:Arc|Rc|Mutex|RwLock|Atomic\w*|OnceLock|parking_lot)\b|\bbytes::")
PRODUCT = ("crates/", "src/", "examples/")  # not perfbench/src: the benchmark's own harness
shared = [f"{path}:{text.count(chr(10), 0, m.start()) + 1}: names {m.group()}"
          for path, t in sorted(shipped.items()) if path.startswith(PRODUCT)
          for text in [COMMENT.sub("", t)] for m in SHARED.finditer(text)]
INFALLIBLE = ("crates/core/src/sequencer/dense.rs", "crates/core/src/sequencer/sparse.rs")
fallible = [f"{path}: names CoreError" for path in INFALLIBLE
            if re.search(r"\bCoreError\b", COMMENT.sub("", shipped[path]))]
print("\n".join(dead) or "reachability census: every pub item has a shipped caller")
print("\n".join(stale) or "allowlist: every ALLOW line names an item with no shipped caller")
print("\n".join(hashers) or "hasher policy: only the allowlisted map has a fixed hasher")
print("\n".join(fallible) or "infallible engines: neither engine names CoreError")
print("\n".join(shared) or "single-threaded core: no lock, atomic, shared refcount or bytes buffer ships")
sys.exit(1 if dead or stale or hashers or fallible or shared else 0)

#!/usr/bin/env bash
# A dependency-free CPU profiler for the repo benchmark, for hosts without
# `perf`: it needs only `cargo`, the system `gcc`, `nm` and `python3`.
#
#   scripts/cpu_profile.sh [--filter REGEX]... [--top N] -- BENCHMARK ARGS...
#   scripts/cpu_profile.sh --again [--filter REGEX]... [--top N]
#   scripts/cpu_profile.sh -- --workload private_commit --seed 1 --seconds 26 --trace 0
#   scripts/cpu_profile.sh --filter 'Runner::phase' --filter 'fgl_obs::' -- \
#       --workload hotcold_share --seed 1 --seconds 26 --trace 0
#
# 1. Builds the benchmark package with `-C force-frame-pointers=yes` into
#    its own target directory (`target/cpu-profile`, or $PROFILE_TARGET),
#    so the release build the benchmark itself uses is left alone.
# 2. Builds the C sampler `scripts/cpu_sampler.c` with `gcc` and preloads
#    it into the run. The sampler arms a CLOCK_PROCESS_CPUTIME_ID timer;
#    on each expiry the signal lands on the thread that is running, whose
#    stack it walks by frame pointers, checking with `mincore` that each
#    frame is mapped before it reads it. At exit every process writes its
#    stacks and memory map to `<target>/profile/samples.<pid>` (a child
#    process gets its own).
# 3. Symbolizes each address with `nm` (the ELF program headers map a
#    file offset to a symbol address) and prints two tables: exclusive
#    (the sampled function itself) and inclusive (any frame of the stack,
#    each function once per sample). `--filter REGEX` keeps only samples
#    with a frame whose name matches, and every share is of the samples
#    kept; given more than once, a sample must match each, and the count
#    left after each filter is printed. The burst of a run is `--filter
#    'Runner::phase'`; adding `--filter 'fgl_obs::'` then counts the
#    burst samples inside fgl_obs. `--again` skips steps 1 and 2 and
#    reports on the last run's samples.
#
# Limits: samples arrive at the kernel tick rate, not at the timer's 1 ms
# interval (about 1 600 for a `simlat_fanin` run, which mostly sleeps;
# 2 000–2 800 for `private_commit`), so a share below a few percent is
# noise. A function that does not keep a frame pointer (libc, a prologue
# in progress) hides its caller. Names inside a stripped libc come from its
# dynamic symbols only, so a static function there is charged to the
# exported symbol before it. x86-64 Linux only. Nothing under `benchmark/`
# is edited.
set -euo pipefail

filters=()
top=25
again=0
while [ $# -gt 0 ]; do
    case "$1" in
    --filter) filters+=("$2"); shift 2 ;;
    --again) again=1; shift ;;
    --top) top="$2"; shift 2 ;;
    --) shift; break ;;
    *) echo "cpu_profile.sh: unknown option $1 (benchmark arguments go after --)" >&2; exit 2 ;;
    esac
done
[ $# -gt 0 ] || [ $again = 1 ] || { echo "cpu_profile.sh: no benchmark arguments after --" >&2; exit 2; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${PROFILE_TARGET:-$root/target/cpu-profile}"
out="$target/profile"
if [ $again = 0 ]; then
    rm -rf "$out"
    mkdir -p "$out"
    (cd "$root/benchmark" && CARGO_TARGET_DIR="$target" \
        RUSTFLAGS="${RUSTFLAGS:-} -C force-frame-pointers=yes" \
        cargo build --release --offline --quiet)
    gcc -O2 -shared -fPIC -o "$out/sampler.so" "$root/scripts/cpu_sampler.c" -lrt
    (cd "$root" && CPU_PROFILE_OUT="$out" LD_PRELOAD="$out/sampler.so" \
        "$target/release/fgl-benchmark" "$@" >"$out/run.out")
    tail -1 "$out/run.out"
fi

python3 - "$out" "$top" "${filters[@]}" <<'EOF'
import bisect, collections, glob, re, struct, subprocess, sys

out, top, patterns = sys.argv[1], int(sys.argv[2]), sys.argv[3:]

def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of every PT_LOAD of a 64-bit ELF."""
    with open(path, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        kind, _, offset, vaddr, _, filesz = struct.unpack_from("<IIQQQQ", table, i * phentsize)
        if kind == 1:
            segs.append((offset, vaddr, filesz))
    return segs

def load_symbols(path):
    """Sorted (address, name) of the functions in `path`, demangled."""
    syms = {}
    for flags in ([], ["-D"]):
        res = subprocess.run(["nm", "-C", "--defined-only", *flags, path],
                             capture_output=True, text=True)
        for line in res.stdout.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                syms.setdefault(int(parts[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", parts[2]))
    table = sorted(syms.items())
    return [a for a, _ in table], [n for _, n in table]

objects = {}

def symbolize(addr, maps):
    i = bisect.bisect_right(maps, (addr, float("inf"))) - 1
    if i < 0 or addr >= maps[i][1]:
        return "[unknown]"
    start, _, offset, path = maps[i]
    if not path.startswith("/"):
        return f"[{path or 'anon'}]"
    if path not in objects:
        try:
            objects[path] = (load_segments(path), *load_symbols(path))
        except OSError:
            objects[path] = ([], [], [])
    segs, addrs, names = objects[path]
    file_off = addr - start + offset
    vaddr = next((file_off - o + v for o, v, n in segs if o <= file_off < o + n), None)
    j = bisect.bisect_right(addrs, vaddr) - 1 if vaddr is not None else -1
    short = path.rsplit("/", 1)[-1]
    return names[j] if j >= 0 else f"[{short}]"

stacks = []
for path in glob.glob(f"{out}/samples.*"):
    maps, raw = [], []
    for line in open(path):
        if line.startswith("map "):
            f = line[4:].split(maxsplit=5)
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            if "x" in f[1]:
                maps.append((lo, hi, int(f[2], 16), f[5].strip() if len(f) > 5 else ""))
        elif line.startswith("stack"):
            raw.append([int(x, 16) for x in line.split()[1:]])
    maps.sort()
    stacks += [[symbolize(a, maps) for a in s] for s in raw]

print(f"\n{len(stacks)} samples")
for pattern in patterns:
    rx = re.compile(pattern)
    stacks = [s for s in stacks if any(rx.search(n) for n in s)]
    print(f"{len(stacks)} of them with a frame matching {pattern!r}")
kept = len(stacks)
if not kept:
    sys.exit(0)
excl = collections.Counter(s[0] for s in stacks if s)
incl = collections.Counter(n for s in stacks for n in set(s))
for title, counts in (("exclusive", excl), ("inclusive", incl)):
    print(f"\n{title:>9}  samples  function")
    for name, n in counts.most_common(top):
        print(f"{100 * n / kept:8.1f}%  {n:7}  {name[:150]}")
EOF

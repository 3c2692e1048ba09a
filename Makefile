# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-update check-crash check-crash-budget check-spec check-psan check-obs check-shard check-group check-page check-flight ci bench bench-json experiments examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis (tinca-lint, DESIGN.md §9): pmem encapsulation, fence
# discipline, domain-readiness inventory, error discipline, .mli
# coverage.  Fails on any finding not in lint.baseline (and on stale
# baseline entries); every baseline entry carries a justification.
lint:
	dune exec bin/tinca_lint.exe -- --root . --baseline lint.baseline

# Rewrite lint.baseline from the current findings, preserving existing
# justifications; new entries get a TODO placeholder you must fill in.
lint-update:
	dune exec bin/tinca_lint.exe -- --root . --baseline lint.baseline --update

# Exhaustive crash-space model check of the commit protocol: every pmem
# event of the default 6-commit workload is a crash point; at each one,
# every survival subset of the torn cache lines is recovered and audited
# (see `tinca_check --help` for budget/seed/workload flags).
check-crash:
	dune exec bin/tinca_check.exe

# The budgeted flavour of check-crash that gates ci: a 3-commit workload
# with a 64-subset cap (any cap shortfall is reported, never silent).
check-crash-budget:
	dune exec bin/tinca_check.exe -- -q --commits 3 --cap 64

# Executable-spec refinement gate: drive the pure journal spec and a
# real Tinca in lockstep at 1, 2 and 4 shards (observational equivalence
# after every command), judge every crash-recovered state by spec
# refinement, and self-validate by planting commit-path mutations that
# must be caught with small shrunk reproducers.  Budgeted by seed count
# and the crash-state cap/stride; coverage is printed per shard count.
check-spec:
	dune exec bin/tinca_check.exe -- --lockstep --lockstep-seeds 3 --lockstep-len 80 --cap 16 --stride 5 -q

# Persistence sanitizer: run the Tinca (incl. crash + recovery), Classic
# (JBD2 + Flashcache) and raw-Flashcache stacks with the flush/fence
# sanitizer attached; reports ordering violations and per-call-site
# redundant-flush counts.
check-psan:
	dune exec bin/tinca_check.exe -- --psan --commits 200 --universe 160

# Observability gate: export a span trace of an 8-block-commit workload,
# validate the Chrome trace_event JSON (monotonic timestamps, balanced
# B/E nesting), pin the per-span fence attribution to the persistence
# budget (stage B = 1 sfence, commit <= 6) and bound the disabled-mode
# tracing overhead at 2% of commit wall time.
check-obs:
	dune exec bin/tinca_bench.exe -- check-obs

# Sharding gate: a budgeted crash-space sweep and a sanitizer pass on a
# 4-shard cache (covering crashes between per-shard Head advances and on
# either side of the cross-shard seal), then the N=1 equivalence pin
# against BENCH_commit.json plus the scaling sanity check.
check-shard:
	dune exec bin/tinca_check.exe -- -q --commits 2 --cap 48 --shards 4 --pmem-kb 256
	dune exec bin/tinca_check.exe -- --psan --commits 100 --universe 160 --shards 4
	dune exec bin/tinca_bench.exe -- check-shard

# Group-commit gate (ISSUE 8): the sanitizer pass with an async
# batch-scoped phase (commit_async streams drained under one fence
# sequence per batch), then tinca_bench's three-property verdict — the
# window=0 async path is media-, cost- and fence-identical to the
# synchronous pipeline, sfences/commit < 1 at >= 8 streams, and p99
# ack-to-durable latency stays within the configured window.  (The
# lockstep side — gen_async equivalence, grouped crash refinement and
# the planted Drop_durable_notify fault — already runs in check-spec.)
check-group:
	dune exec bin/tinca_check.exe -- --psan --commits 120 --universe 160 --group-window 400000
	dune exec bin/tinca_bench.exe -- check-group

# Commit-scheme gate (ISSUE 10): tinca_bench's four-property verdict —
# paging's fence budget flat in transaction size (2 sfences/commit at
# any size), a budgeted paging crash-space sweep clean at N=1 and N=4,
# lockstep spec refinement (paging N=1/4, logging N=4), and a
# psan-clean paging workload — then a sanitizer pass and a denser
# standalone paging sweep through tinca_check.
check-page:
	dune exec bin/tinca_bench.exe -- check-page
	dune exec bin/tinca_check.exe -- --psan --scheme paging --commits 150 --universe 160 --shards 2
	dune exec bin/tinca_check.exe -- -q --scheme paging --commits 3 --cap 32 --stride 3

# Flight-recorder gate (ISSUE 9): tinca_bench's five-property verdict —
# zero added fences and <= 2% aggregate commit overhead on
# fig_commit_batch's stream, a recorder-on group workload psan-clean at
# N=1 and N=4, the crash sweep's recovery-semantics pin (flight replay
# on/off recovers identical logical state) with the dossier agreeing
# with the acked-durability oracle at every explored state, and the
# planted Drop_durable_notify fault convicted by the dossier alone —
# then a denser standalone sweep at N=1 and N=4.
check-flight:
	dune exec bin/tinca_bench.exe -- check-flight
	dune exec bin/tinca_check.exe -- --flight --stride 9 -q
	dune exec bin/tinca_check.exe -- --flight --stride 13 --shards 4 -q

# Everything a gate should run: build, unit tests, the lint, the budgeted
# crash-space sweep, the spec-refinement gate, the sanitizer pass, the
# observability gate, the commit-protocol benchmark artifact, the
# sharding gate, the group-commit gate and the commit-scheme gate.  (The crash sweep used to
# hide as an unnamed recipe line here — as a prerequisite it is now
# visible in `make -n ci`, runnable on its own, and not silently
# skipped when a prerequisite fails earlier in the recipe.)
ci: build test lint check-crash-budget check-spec check-psan check-obs bench-json check-shard check-group check-page check-flight

# Full paper reproduction + Bechamel micro-benchmarks.
bench:
	dune exec bench/main.exe

# Machine-readable commit-protocol benchmark (sfences, flush write-backs
# and simulated ns per commit across pipeline x flush instruction x txn
# size, plus trace-replay throughput per stack).  Every number in it is
# on the simulated clock, so the fresh copy under _build/ must equal the
# committed BENCH_commit.json byte for byte; after an intended change to
# the simulated results, regenerate the committed file with
# `dune exec bin/tinca_bench.exe -- bench-json` and record why they moved.
bench-json:
	dune exec bin/tinca_bench.exe -- bench-json --out _build/BENCH_commit.json
	@diff -u BENCH_commit.json _build/BENCH_commit.json \
	  || { echo "bench-json: simulated results differ from the committed BENCH_commit.json"; exit 1; }

# Just the paper's tables and figures (see `tinca_bench list`).
experiments:
	dune exec bin/tinca_bench.exe -- run all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/protocol_walkthrough.exe
	dune exec examples/kvstore.exe
	dune exec examples/crash_torture.exe
	dune exec examples/cluster_demo.exe
	dune exec examples/fileserver_compare.exe

clean:
	dune clean

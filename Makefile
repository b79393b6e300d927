# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check bench bench-fast bench-smoke scale-smoke shard-smoke serve-smoke fuzz-smoke health-smoke explain-smoke slo-smoke cover-smoke perf-map-smoke perf-converge-smoke artifacts csv examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# What CI runs: a full build plus the test suites and the telemetry
# smoke (dashboard, chrome trace, prometheus exposition).
check:
	dune build @all
	dune runtest
	$(MAKE) health-smoke
	$(MAKE) explain-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) scale-smoke
	$(MAKE) shard-smoke
	$(MAKE) serve-smoke
	$(MAKE) slo-smoke
	$(MAKE) cover-smoke
	$(MAKE) perf-map-smoke
	$(MAKE) perf-converge-smoke

bench:
	dune exec bench/main.exe

# Also writes BENCH_obs.json: per-scenario wall time + metrics registry.
bench-fast:
	dune exec bench/main.exe -- --fast

# CI-sized: the control-plane daemon on a tiny topology for 2 epochs,
# plus the seeded daemon bench section in fast mode.
bench-smoke:
	dune exec bin/san_map.exe -- daemon -t star:3 --epochs 2 --schedule 1:cut
	dune exec bench/main.exe -- --only daemon --fast --no-bechamel

# Scaling at CI size: map a seeded 1k-host fat-tree end to end under a
# wall-time budget, then run the fast scaling bench rung so the
# ft-100 probes/sec regression gate (bench/scaling_baseline.json) is
# exercised on every check.
scale-smoke:
	timeout 120 dune exec bin/san_map.exe -- map -t fabric:ft-1k --seed 1 \
	  --out-dir ""
	dune exec bench/main.exe -- --only scaling --fast --no-bechamel

# The sharded mapper at CI size: a seeded 4-shard map of the 1k-host
# fat-tree checked isomorphic against the solo baseline (the CLI exits
# non-zero on any verification failure), then the fast scaling-shard
# bench rung, which additionally gates the merged map on finishing in
# under half the solo simulated wall and on not drifting from
# bench/scaling_baseline.json.
shard-smoke:
	timeout 240 dune exec bin/san_map.exe -- shard -t fabric:ft-1k --seed 1 \
	  --shards 4 --compare-solo --out-dir ""
	dune exec bench/main.exe -- --only scaling-shard --fast --no-bechamel

# The route-serving plane at CI size: a seeded ft-1k serve run whose
# --check verifies delivery and deadlock freedom of a served sample
# (the CLI exits non-zero on either), then the fast serving bench
# rungs, which gate the ft-1k lookup rate against
# bench/serving_baseline.json (fail under a quarter of the recorded
# rate) and re-check deadlock freedom per rung.
serve-smoke:
	timeout 120 dune exec bin/san_map.exe -- serve -t fabric:ft-1k --seed 1 \
	  --queries 100000 --check
	dune exec bench/main.exe -- --only serving --fast --no-bechamel

# The property fuzzer at CI size: a fixed seed so the run is
# reproducible, 200 random fabrics through the full suite. On a
# failure the exit code is non-zero and each shrunk counterexample is
# written to fuzz_artifacts/ as DOT plus its replay seed.
fuzz-smoke:
	dune exec bin/san_map.exe -- fuzz --cases 200 --seed 42 \
	  --artifacts fuzz_artifacts

# The SLO observatory at CI size: a seeded short load-matrix run
# (convergence percentiles vs offered load x fault schedule, flight
# recordings under _artifacts/load_matrix/). The bench exits non-zero
# if any Degraded epoch lacks a postmortem-explainable flight
# recording, then a daemon run under load with the default SLOs
# exercises the burn-rate path end to end.
slo-smoke:
	dune exec bench/main.exe -- --only load_matrix --fast --no-bechamel
	dune exec bin/san_map.exe -- daemon -t fat-tree:2:2:4 --epochs 8 \
	  --quiet --load 1.0 --load-pattern hotspot --scenario storm --seed 5
	test -s BENCH_obs.json

# Budgeted mapping at CI size: a seeded 30%-budget ft-100 run (the CLI
# exits non-zero unless the partial map passes the subgraph embedding
# check) whose confidence-annotated artifact must land under
# _artifacts/, then the fast coverage bench rung, which gates the
# accuracy-vs-budget curve against bench/coverage_baseline.json.
cover-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- map -t ft-100 --seed 1 --budget 0.3 \
	  --metrics _artifacts/cover_metrics.json --out-dir _artifacts
	test -s _artifacts/partial-map-ft-100-b0.3.json
	dune exec bench/main.exe -- --only coverage --fast --no-bechamel

# The mapper's merge path at full benchmark size: one traced map-r32
# run of the performance benchmark (64 hosts, radix 32, where replicate
# merging dominates). It exits non-zero unless the traced map replays
# the untraced one exactly (probes, explorations, created and live
# vertices), the layer self-times sum to the traced wall within 5%, and
# the map is isomorphic to N - F.
perf-map-smoke:
	sh bench/perf/run.sh --workload map-r32 --seed 1 --trace 1

# The daemon's incident path at full benchmark size: one traced
# converge-ft400 run (a 400-host fat-tree losing one link). It exits
# non-zero unless the traced incident replays the daemon's epoch 1
# exactly (probes, simulated convergence, delta bytes, unchanged
# hosts, final map), the layer self-times sum to the traced wall
# within 5%, and the daemon ends Stable with a verified map.
perf-converge-smoke:
	sh bench/perf/run.sh --workload converge-ft400 --seed 1 --trace 1

# The provenance ledger end to end: explain a Figure-3 switch and a
# route (with the evidence DOT), attribute a map diff to the probes
# that caused it, then drive a small daemon into Degraded and read the
# flight recording back with `postmortem`.
explain-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- explain -t cab --why switch:C-leaf0 \
	  --dot _artifacts/why-C-leaf0.dot
	dune exec bin/san_map.exe -- explain -t cab --why 'route:C-h2->C-h9'
	dune exec bin/san_map.exe -- blame --old star:2 --new star:4
	dune exec bin/san_map.exe -- daemon -t star:3 --epochs 5 --quiet \
	  --schedule 2:kill-leader,3:kill-leader,4:kill-leader
	dune exec bin/san_map.exe -- postmortem \
	  $$(ls -t _artifacts/flight-*.jsonl | head -1)
	test -s _artifacts/why-C-leaf0.dot

# The telemetry stack end to end: health dashboard with a link cut,
# exporting a Chrome trace and a Prometheus exposition file, then a
# seeded daemon run with the same cut whose per-epoch output must show
# the coverage alert raised at the cut epoch and cleared at the next.
# Outputs land under _artifacts/ (gitignored) with the other smoke
# artifacts.
health-smoke:
	mkdir -p _artifacts
	dune exec bin/san_map.exe -- health -t star:3 --epochs 2 --schedule 1:cut \
	  --chrome-trace _artifacts/smoke_trace.json \
	  --prom _artifacts/smoke_metrics.prom
	test -s _artifacts/smoke_trace.json && test -s _artifacts/smoke_metrics.prom
	dune exec bin/san_map.exe -- daemon -t star:3 --epochs 3 --seed 1 \
	  --schedule 1:cut --out-dir "" > _artifacts/smoke_daemon.txt
	grep -q 'alert raised: coverage (epoch 1)' _artifacts/smoke_daemon.txt
	grep -q 'alert cleared: coverage (epoch 2)' _artifacts/smoke_daemon.txt

# The reproduction record: full test log and full harness output.
artifacts:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# CSV series for external plotting (figures 8 and 9).
csv:
	dune exec bench/main.exe -- --only fig8,fig9 --no-bechamel --csv data

examples:
	dune exec examples/quickstart.exe
	dune exec examples/now_cluster.exe
	dune exec examples/dynamic_reconfig.exe
	dune exec examples/election_demo.exe
	dune exec examples/traffic_storm.exe
	dune exec examples/epoch_daemon.exe

clean:
	dune clean

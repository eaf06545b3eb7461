# Convenience targets; `make check` is what CI runs.

.PHONY: all build test fmt check loc bench simbench searchbench servesmoke fuzz lint-examples

all: build

build:
	dune build @all

test:
	dune runtest

# Formatting check: `dune build @fmt` requires ocamlformat, which not
# every environment has — skip with a notice rather than fail there.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

check: build fmt test

# Source size: the line count of every .ml/.mli file under lib/ and
# bin/, the figure CHANGES.md and ROADMAP.md quote.
loc:
	@find lib bin \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l | tr -d ' '

bench:
	dune exec bench/main.exe

# Simulator-throughput report: interpreted MIPS of the execution
# engine on every BLAS kernel, untimed and timed, each over the rate
# of the kernel's native reference (Workload.expectation) in the same
# process, with fast-path coverage and cycle attribution, plus the
# sampled-vs-full fidelity comparison.  Its report goes to
# _build/simbench_results.json, leaving the committed
# BENCH_results.json (the baseline CI reads) as it is.  Guarded
# against the committed results:
# a >15% regression of either host-normalised geomean fails the
# target, as does sampled fidelity exceeding its 1% cycle-error budget
# (against this run and against the baseline's full-fidelity cycles)
# or the sampled work reduction dropping under 5x.
#
# On a 2-vCPU host this full run fails its 3.5x geomean sampled
# wall-speedup bar on working code (3.19x-3.46x): the single-precision
# kernels have a 4x work ratio, not the double kernels' 8x, and pull
# the fourteen-kernel geomean under the bar.  CI gates the --quick run
# (double precision only), which clears it.
simbench:
	dune exec bench/main.exe -- --exp simbench --no-store --profile \
		--baseline BENCH_results.json --json _build/simbench_results.json

# Search-strategy race: probes-to-best and best MFLOPS of the line
# search, the cold surrogate, and the store-warmed surrogate on every
# BLAS kernel (deterministic simulator — exactly reproducible).  Fails
# unless the surrogate's probes-to-best geomean stays under 0.6x of
# linesearch at same-or-better MFLOPS, and warm starts stay under 0.5x
# of the surrogate's own cold probes-to-best.  Its report goes to
# _build/searchbench_results.json.
searchbench:
	dune exec bench/main.exe -- --exp searchbench --no-store \
		--json _build/searchbench_results.json

# Tuning-service smoke: daemon on a Unix socket, cold tune, warm
# lookup (must be a cache hit), stat, graceful shutdown — every step
# timeout-bounded.
servesmoke: build
	sh scripts/serve_smoke.sh

# Golden lint gate: `ifko lint --json` over the example kernels and
# the checked-in fuzz reproducers must match the committed *.lint.json
# goldens byte for byte — a new finding (or a silently lost one) fails
# the gate.  After an intentional linter change, regenerate with
#   dune exec bin/ifko_cli.exe -- lint FILE --json > BASE.lint.json
lint-examples: build
	@fail=0; \
	for f in examples/kernels/*.hil test/corpus/*.repro; do \
		g="$${f%.*}.lint.json"; \
		out=$$(dune exec --no-build bin/ifko_cli.exe -- lint "$$f" --json); \
		code=$$?; \
		if [ $$code -eq 2 ]; then \
			echo "lint-examples: $$f: internal error"; fail=1; \
		elif [ ! -f "$$g" ]; then \
			echo "lint-examples: $$f: missing golden $$g"; fail=1; \
		elif [ "$$out" != "$$(cat "$$g")" ]; then \
			echo "lint-examples: $$f: diagnostics differ from $$g"; \
			echo "  expected: $$(cat "$$g")"; \
			echo "  got:      $$out"; fail=1; \
		fi; \
	done; \
	[ $$fail -eq 0 ] && echo "lint-examples: all goldens match"; \
	exit $$fail

# Deterministic fuzz smoke (CI runs the same seed; the nightly
# workflow explores a fresh date-derived seed at a larger budget).
# --cross-check holds provably-independent kernels to bit-exact
# array agreement against the dependence analysis.
fuzz:
	dune exec bin/ifko_cli.exe -- fuzz --seed 42 --count 200 --cross-check

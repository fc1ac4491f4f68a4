# Tier-1 verification: everything CI gates on.
#   make check         build + unit/property tests + end-to-end smoke runs
#   make check-tests   every test/test_*.ml must be wired into test/dune
#   make gates         wall-clock gates: kernel throughput floor, stats,
#                      search-journal and serve observability overheads
#   make smoke-serve-metrics  end-to-end Prometheus scrape of a live daemon
#   make regen-golden  deliberately rewrite test/golden/* (review the diff!)

.PHONY: all check check-tests test gates smoke-serve-metrics regen-golden clean

all:
	dune build

check: check-tests
	dune build
	dune runtest
	dune exec bench/main.exe -- headline --smoke
	$(MAKE) gates
	$(MAKE) smoke-serve-metrics

# A test file that exists but is missing from the dune test stanza is
# silently never run; fail loudly instead.
check-tests:
	@missing=0; \
	for f in test/test_*.ml; do \
	  name=$$(basename $$f .ml); \
	  grep -qw "$$name" test/dune || { \
	    echo "ERROR: $$f is not listed in test/dune"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] && echo "check-tests: all test modules wired" || exit 1

test:
	dune runtest

gates:
	dune exec bench/main.exe -- gates

# Start a real daemon, scrape GET /metrics with stock curl, assert the
# required series exist and the exposition format parses.
smoke-serve-metrics:
	dune build bin/sram_opt.exe
	sh scripts/serve_metrics_smoke.sh

regen-golden:
	dune exec test/regen_golden.exe -- test/golden

clean:
	dune clean

.PHONY: all test test-parallel test-rewrite fault-test differential fuzz-smoke \
        fuzz-soak fuzz-self-test fuzz-self-test-rewrite bench bench-quick cli-errors \
        examples trace-demo clean

all:
	dune build @all

test: all
	dune runtest

# Only the morsel-parallel suite: domain-pool claiming discipline,
# parallel-vs-serial parity across plan families, the mid-flight guard's
# resumable prefix, and per-domain plan caches hammered from N domains.
test-parallel: all
	dune exec test/test_parallel.exe

# Only the logical-rewrite suite: qcheck soundness laws for every rule,
# fixpoint idempotence, rule-order insensitivity on commuting pairs, the
# LIMIT-pushdown page-drop assertion, and fingerprint key stability.
test-rewrite: all
	dune exec test/test_rewrite.exe

# Only the robustness suite: fault injection, degradation chain,
# optimization budget, and guard-driven re-optimization.
fault-test: all
	dune exec test/test_robustness.exe

# Differential plan-correctness oracle under three generator seeds (the
# same matrix CI runs).
differential: all
	DIFF_SEED=42 dune exec test/test_differential.exe
	DIFF_SEED=7 dune exec test/test_differential.exe
	DIFF_SEED=1234 dune exec test/test_differential.exe

# Bounded feedback-guided fuzz (the CI gate): fixed seed, the
# pure-random control alongside, fails on any divergence, on steered
# coverage not beating random, or on the corpus stagnating before
# iteration 50.
fuzz-smoke: all
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 200 --seed 5 --baseline --require-new-after 50

# Unbounded soak with a persistent corpus: Ctrl-C to stop, rerun to
# resume from the saved cases.  Exits nonzero on the first divergence,
# leaving a replayable .fuzz-repro behind.
fuzz-soak: all
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 0 --corpus-dir _fuzz_corpus

# Prove the harness can actually catch a bug: perturb one estimator and
# require the fuzzer to find, shrink, and replay the planted divergence.
fuzz-self-test: all
	dune exec bin/robustopt.exe -- experiment fuzz --self-test --seed 5

# Same proof for the logical rewrite layer: plant an unsound rewrite and
# require the rewrite pass to catch, shrink, and replay it.
fuzz-self-test-rewrite: all
	dune exec bin/robustopt.exe -- experiment fuzz --self-test-rewrite --seed 5

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- quick

# User errors are reported, not crashed on.  Bad SQL (an overflowing
# integer literal, an unknown column, a date that does not exist) and a
# data directory or batch file that does not load (missing, incomplete,
# a directory, or holding an impossible date) each exit 1; a bad flag value is a command-line error
# (exit 124).  None may print "internal error".
CLI := ./_build/default/bin/robustopt.exe
cli-errors:
	dune build bin/robustopt.exe
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	check() { want=$$1; shift; out=$$("$$@" 2>&1); code=$$?; \
	  if [ $$code -ne $$want ] || echo "$$out" | grep -q "internal error"; then \
	    echo "cli-errors: exit $$code (want $$want) for: $$*"; echo "$$out"; exit 1; \
	  fi; \
	  echo "cli-errors: ok: $$(echo "$$out" | head -n 1)"; }; \
	check 1 $(CLI) run "SELECT COUNT(*) FROM lineitem WHERE l_quantity = 99999999999999999999999"; \
	check 1 $(CLI) run "SELECT COUNT(*) FROM lineitem WHERE nosuchcol = 1"; \
	check 1 $(CLI) run "SELECT COUNT(*) FROM lineitem WHERE l_shipdate < DATE '1995-13-45'"; \
	check 1 $(CLI) run "SELECT COUNT(*) FROM lineitem WHERE l_shipdate < '1995-02-29'"; \
	check 1 $(CLI) profile --workload star "SELECT COUNT(*) FROM fact, dim1"; \
	check 124 $(CLI) run --workload bogus "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) run --estimator bogus "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) run --fault-profile bogus "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) run --confidence 150 "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) run --sample-size 0 "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) run --scale 0 "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) run --reopt-threshold 0.5 "SELECT COUNT(*) FROM lineitem"; \
	check 124 $(CLI) experiment nosuch; \
	check 1 $(CLI) run --data-dir "$$tmp/missing" "SELECT COUNT(*) FROM fact"; \
	check 1 $(CLI) batch --workload star "$$tmp"; \
	mkdir "$$tmp/star" && $(CLI) export --workload star "$$tmp/star" > /dev/null && \
	  rm "$$tmp/star/fact.csv"; \
	check 1 $(CLI) run --data-dir "$$tmp/star" "SELECT COUNT(*) FROM fact"; \
	mkdir "$$tmp/dates" && printf 'CREATE TABLE t (\n  k INT PRIMARY KEY,\n  d DATE\n);\n' \
	  > "$$tmp/dates/schema.sql" && printf 'k,d\n1,1995-02-28\n2,1995-02-30\n' > "$$tmp/dates/t.csv"; \
	check 1 $(CLI) run --data-dir "$$tmp/dates" "SELECT COUNT(*) FROM t"

examples:
	dune exec examples/quickstart.exe
	dune exec examples/exploratory_vs_dashboard.exe
	dune exec examples/star_join.exe
	dune exec examples/sql_hints.exe
	dune exec examples/workload_prior.exe
	dune exec examples/guarded_reopt.exe

# One guarded, re-optimized query with the full observability surface:
# trace-event log, per-operator span tree, and the EXPLAIN ANALYZE table
# from the same single instrumented execution.
trace-demo: all
	dune exec bin/robustopt.exe -- run --trace --reopt-threshold 4 \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975"
	dune exec bin/robustopt.exe -- explain --analyze --trace \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975"

clean:
	dune clean

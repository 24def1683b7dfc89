#!/usr/bin/env bash
# Minimal CI: configure, build, run the tier-1 test suite, check that
# the docs reference only paths that exist, and re-run the concurrency-
# and fault-heavy suites under ASan+UBSan and then under ThreadSanitizer.
#
# Usage: tools/ci.sh [build-dir]   (default: build)
# Set TGPP_CI_SKIP_SANITIZE=1 to skip both sanitizer stages.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build}"

cmake -B "$root/$build" -S "$root"
cmake --build "$root/$build" -j"$(nproc)"
ctest --test-dir "$root/$build" --output-on-failure
"$root/tools/check_docs.sh" "$root"

if [ "${TGPP_CI_SKIP_SANITIZE:-0}" != "1" ]; then
  # The fault-injection, chaos, fabric, storage, and metrics tests
  # exercise the code most likely to hide lifetime/race bugs (retry
  # loops, receive deadlines, rollback/replay, lock-free instruments and
  # registration races): build just those under ASan+UBSan.
  asan="$build-asan"
  cmake -B "$root/$asan" -S "$root" \
        -DCMAKE_BUILD_TYPE=Debug -DTGPP_SANITIZE=ON
  # Suites join this stage with the `asan` label (tests/CMakeLists.txt).
  cmake --build "$root/$asan" -j"$(nproc)" --target asan-tests
  ctest --test-dir "$root/$asan" --output-on-failure -L asan

  # Job-service smoke under ASan: serve a small graph on loopback TCP
  # with the event log and metrics export on, submit two PageRank jobs,
  # scrape the HTTP introspection endpoints, pull a job profile, list
  # jobs as JSONL, and shut the daemon down cleanly (docs/SERVICE.md,
  # docs/OBSERVABILITY.md).
  cmake --build "$root/$asan" -j"$(nproc)" --target tgpp_cli
  smoke_dir="$(mktemp -d /tmp/tgpp_ci_service.XXXXXX)"
  trap 'rm -rf "$smoke_dir"' EXIT
  "$root/$asan/tools/tgpp" generate --scale=10 --out="$smoke_dir/g.bin" \
      --undirected
  "$root/$asan/tools/tgpp" serve --graph="$smoke_dir/g.bin" \
      --port=0 --workdir="$smoke_dir/cluster" \
      --events-out="$smoke_dir/events.jsonl" \
      --metrics-out="$smoke_dir/metrics.prom" \
      --heartbeat-interval-ms=50 --heartbeat-timeout-ms=2000 \
      > "$smoke_dir/serve.log" &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
                "$smoke_dir/serve.log" 2>/dev/null | head -1)"
    [ -n "$port" ] && break
    kill -0 "$serve_pid" || { echo "ci: serve died" >&2; exit 1; }
    sleep 0.2
  done
  [ -n "$port" ] || { echo "ci: serve never bound" >&2; exit 1; }
  "$root/$asan/tools/tgpp" submit --port="$port" \
      --query=pr --iterations=3 --wait --timeout-ms=120000
  "$root/$asan/tools/tgpp" submit --port="$port" \
      --query=wcc --wait --timeout-ms=120000

  # HTTP introspection: /metrics must be Prometheus text, /healthz must
  # report live heartbeats, /jobs must embed per-job profiles.
  http_get() {
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
    # The server may RST after its final write (HTTP/1.0 close); tolerate
    # the reset here — the content greps below still require the full
    # response to have arrived.
    cat <&3 || true
    exec 3<&- 3>&-
  }
  http_get /metrics > "$smoke_dir/metrics.http"
  grep -q "200 OK" "$smoke_dir/metrics.http"
  grep -q "# TYPE tgpp_service_jobs_done counter" "$smoke_dir/metrics.http"
  http_get /healthz > "$smoke_dir/healthz.http"
  grep -q "200 OK" "$smoke_dir/healthz.http"
  grep -q '"ok":true' "$smoke_dir/healthz.http"
  http_get /jobs > "$smoke_dir/jobs.http"
  grep -q '"profile":{' "$smoke_dir/jobs.http"

  # Per-job profile + machine-readable listings.
  "$root/$asan/tools/tgpp" profile --port="$port" --id=1
  "$root/$asan/tools/tgpp" profile --port="$port" --id=2 --json \
      | grep -q '"supersteps":'
  "$root/$asan/tools/tgpp" jobs --port="$port" --json \
      > "$smoke_dir/jobs.jsonl"
  [ "$(wc -l < "$smoke_dir/jobs.jsonl")" -eq 2 ]
  grep -q '"scatter_cpu_s":' "$smoke_dir/jobs.jsonl"
  "$root/$asan/tools/tgpp" shutdown --port="$port"
  wait "$serve_pid"

  # The streamed event log must be well-formed JSONL telling the whole
  # story: submits, admits, supersteps, and terminal states.
  [ -s "$smoke_dir/events.jsonl" ] || { echo "ci: no events" >&2; exit 1; }
  grep -q '"type":"job.submit"' "$smoke_dir/events.jsonl"
  grep -q '"type":"job.admit"' "$smoke_dir/events.jsonl"
  grep -q '"type":"superstep"' "$smoke_dir/events.jsonl"
  grep -q '"type":"job.done"' "$smoke_dir/events.jsonl"
  if grep -vq '^{"v":1,' "$smoke_dir/events.jsonl"; then
    echo "ci: malformed event line" >&2; exit 1
  fi

  # ThreadSanitizer pass over the lock/latch-heavy suites: the buffer
  # pool's overlapped miss path (frame claim/publish races, pin CAS,
  # shard latches), the fabric mailboxes, and the lock-free metrics
  # instruments.
  tsan="$build-tsan"
  cmake -B "$root/$tsan" -S "$root" \
        -DCMAKE_BUILD_TYPE=Debug -DTGPP_SANITIZE=thread
  # The kill-recovery chaos matrix joins the TSan pass too: the heartbeat
  # monitor thread, FailableBarrier, and recovery replay are exactly the
  # cross-thread paths TSan is good at breaking. dynamic_graph_test joins
  # for the update-vs-query isolation test: concurrent readers over a
  # mutating shared buffer pool is exactly the race surface of the
  # dynamic-graph subsystem (docs/DYNAMIC.md). util_test joins for the
  # ThreadPool/ParallelFor tests, which the engine's scatter fan-out runs
  # on. Suites join this stage with the `tsan` label (tests/CMakeLists.txt).
  cmake --build "$root/$tsan" -j"$(nproc)" --target tsan-tests
  ctest --test-dir "$root/$tsan" --output-on-failure -L tsan
fi

# Direction-optimization bench smoke: verifies push/pull/auto/sparse
# variants produce bit-identical results and that auto actually switches
# to pull on the RMAT graph (see bench/bench_kernels_direction.cc).
cmake --build "$root/$build" -j"$(nproc)" --target bench_kernels_direction
"$root/$build/bench/bench_kernels_direction" --smoke

# Kill-recovery bench smoke: kills machine 1 mid-PageRank, recovers from
# the last checkpoint, and verifies the recovered result is bit-identical
# to a fault-free baseline (see bench/bench_recovery.cc).
cmake --build "$root/$build" -j"$(nproc)" --target bench_recovery
"$root/$build/bench/bench_recovery" --smoke

# I/O-backend bench smoke: cold-miss throughput rows for both backends
# plus the backend-parity check — a deterministic PageRank must produce
# identical CRCs under io_uring and the thread-pool fallback (see
# bench/bench_io_backend.cc; on kernels without io_uring the uring rows
# are skipped and the parity check degenerates to the threads run).
cmake --build "$root/$build" -j"$(nproc)" --target bench_io_backend
"$root/$build/bench/bench_io_backend" --smoke

# Interactive-workload bench smoke: closed-loop 90/10 read/write mix over
# the job service with update jobs, asserting (1) the final mutated graph
# digests identically to an offline rebuild, (2) warm incremental
# PageRank is exactly quiescent with every rank within kPrIncScale/1000
# of the full recompute, and (3) WAL replay
# after a mid-batch kill converges (see bench/bench_snb_interactive.cc).
cmake --build "$root/$build" -j"$(nproc)" --target bench_snb_interactive
"$root/$build/bench/bench_snb_interactive" --smoke
echo "ci: OK"

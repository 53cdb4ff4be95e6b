// Command schedd is the scheduling daemon: a long-running HTTP/JSON
// service exposing the paper's two-phase algorithms, the
// semi-clairvoyant simulator, and the optimum/bound engines (see
// internal/serve and SERVING.md for the endpoint reference).
//
// Examples:
//
//	schedd -addr :8080
//	schedd -addr 127.0.0.1:0 -max-inflight 8 -timeout 10s
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/schedule -d '{
//	  "algorithm": "lpt-norestriction",
//	  "instance": {"m": 4, "alpha": 1.5, "estimates": [5,3,8,2,7,4]}
//	}'
//
// Streaming: POST /v1/stream takes newline-delimited schedule requests
// and answers one NDJSON result line per item as each is computed.
// POST /v1/batch takes many in one body.
//
// The daemon drains in-flight requests on SIGINT/SIGTERM (bounded by
// -drain) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxInflight = flag.Int("max-inflight", 0, "solver-endpoint concurrency before 429 (0 = 2*GOMAXPROCS)")
		workers     = flag.Int("workers", 0, "worker pool per /v1/batch request (0 = GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		maxBody     = flag.Int64("max-body", 8<<20, "request body size cap in bytes")
		maxTasks    = flag.Int("max-tasks", 100000, "per-instance task cap")
		maxMachines = flag.Int("max-machines", 10000, "per-instance machine cap")
		maxBatch    = flag.Int("max-batch", 256, "items per /v1/batch request")
		maxStream   = flag.Int("max-stream-items", 10000, "items per /v1/stream request")
		streamTime  = flag.Duration("stream-timeout", 5*time.Minute, "per-stream deadline")
		exactLimit  = flag.Int("exact-limit", 0, "exact-optimum task cap (0 = default 20)")
		statsFlag   = flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	)
	flag.Parse()

	cfg := serve.Config{
		MaxInflight:    *maxInflight,
		Workers:        *workers,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxTasks:       *maxTasks,
		MaxMachines:    *maxMachines,
		MaxBatch:       *maxBatch,
		MaxStreamItems: *maxStream,
		StreamTimeout:  *streamTime,
		ExactLimit:     *exactLimit,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, *addr, cfg, *drain, nil)
	if *statsFlag {
		fmt.Fprintln(os.Stderr, "--- schedd internal stats ---")
		if werr := obs.Write(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "schedd: stats:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// run is the daemon minus flags and signals: serve until ctx is
// cancelled, then drain in-flight requests for at most drain (see
// wire.ServeUntil for ready).
func run(ctx context.Context, addr string, cfg serve.Config, drain time.Duration, ready chan<- net.Addr) error {
	return wire.ServeUntil(ctx, addr, serve.New(cfg).Handler(), drain, ready)
}

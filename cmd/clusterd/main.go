// Command clusterd is the cluster dispatcher: an HTTP proxy that
// fronts a pool of schedd backends, places each incoming work item on
// a replica set of backends (phase 1), and dispatches
// semi-clairvoyantly with hedging, circuit breaking, and re-dispatch
// (phase 2). See internal/cluster and CLUSTER.md.
//
// Examples:
//
//	clusterd -addr :9090 -backends http://10.0.0.7:8080,http://10.0.0.8:8080
//	clusterd -backends http://a:8080,http://b:8080,http://c:8080,http://d:8080 \
//	    -strategy group:2 -hedge-quantile 0.95
//
//	curl -s localhost:9090/healthz
//	curl -s -X POST localhost:9090/v1/batch -d '{
//	  "requests": [
//	    {"algorithm": "lpt-norestriction",
//	     "instance": {"m": 4, "alpha": 1.5, "estimates": [5,3,8,2,7,4]}}
//	  ]
//	}'
//
// Streaming: POST /v1/stream takes newline-delimited schedule requests
// and emits one NDJSON result line per item in input order, dispatching
// concurrently under a bounded window; ?strategy=none|all|group:k
// overrides the configured replication strategy per stream.
//
// The daemon drains in-flight batches on SIGINT/SIGTERM (bounded by
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

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", ":9090", "listen address")
		backends    = flag.String("backends", "", "comma-separated schedd base URLs (required)")
		strategy    = flag.String("strategy", "all", "replication strategy: none, all, or group:k")
		workers     = flag.Int("workers", 0, "batch fan-out workers (0 = 2*GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-batch deadline")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		maxBody     = flag.Int64("max-body", 8<<20, "request body size cap in bytes")
		maxTasks    = flag.Int("max-tasks", 100000, "per-instance task cap")
		maxMachines = flag.Int("max-machines", 10000, "per-instance machine cap")
		maxBatch    = flag.Int("max-batch", 256, "items per /v1/batch request")
		maxStream   = flag.Int("max-stream-items", 10000, "items per /v1/stream request")
		streamTime  = flag.Duration("stream-timeout", 5*time.Minute, "per-stream deadline")
		noHedge     = flag.Bool("no-hedge", false, "disable duplicate dispatch of slow items")
		hedgeQ      = flag.Float64("hedge-quantile", 0.9, "latency quantile that triggers a hedge")
		hedgeMin    = flag.Duration("hedge-min-delay", 2*time.Millisecond, "hedge delay floor")
		hedgeMax    = flag.Duration("hedge-max-delay", time.Second, "hedge delay cap")
		brkThresh   = flag.Int("breaker-threshold", 3, "consecutive failures that open a backend's breaker")
		brkBase     = flag.Duration("breaker-base", 100*time.Millisecond, "first breaker-open window")
		brkMax      = flag.Duration("breaker-max", 5*time.Second, "breaker backoff cap")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "backend /healthz probe spacing")
		retryCap    = flag.Duration("retry-after-cap", 2*time.Second, "longest honored 429 Retry-After")
		statsFlag   = flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	)
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "clusterd: -backends is required")
		os.Exit(2)
	}
	cfg := cluster.Config{
		Backends:           wire.SplitURLs(*backends),
		Strategy:           *strategy,
		Workers:            *workers,
		MaxBatch:           *maxBatch,
		MaxStreamItems:     *maxStream,
		StreamTimeout:      *streamTime,
		MaxTasks:           *maxTasks,
		MaxMachines:        *maxMachines,
		MaxBodyBytes:       *maxBody,
		RequestTimeout:     *timeout,
		DisableHedging:     *noHedge,
		HedgeQuantile:      *hedgeQ,
		HedgeMinDelay:      *hedgeMin,
		HedgeMaxDelay:      *hedgeMax,
		BreakerThreshold:   *brkThresh,
		BreakerBaseBackoff: *brkBase,
		BreakerMaxBackoff:  *brkMax,
		ProbeInterval:      *probeEvery,
		RetryAfterCap:      *retryCap,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, *addr, cfg, *drain, nil)
	if *statsFlag {
		fmt.Fprintln(os.Stderr, "--- clusterd internal stats ---")
		if werr := obs.Write(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "clusterd: stats:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(1)
	}
}

// run is the daemon minus flags and signals: build the tier, probe its
// upstreams, and serve until ctx is cancelled, then drain in-flight
// batches for at most drain (see wire.ServeUntil for ready).
func run(ctx context.Context, addr string, cfg cluster.Config, drain time.Duration, ready chan<- net.Addr) error {
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	c.Start(ctx)
	defer c.Close()
	return wire.ServeUntil(ctx, addr, c.Handler(), drain, ready)
}

// Command frontd is the sharded front tier: an HTTP daemon that
// consistent-hash-shards work items across a fleet of clusterd shards,
// sheds load beyond its admission caps with 429 + Retry-After, and
// re-routes work off a dead shard to its ring successors. See
// internal/front and FRONTIER.md.
//
// Examples:
//
//	frontd -addr :9900 -shards http://10.0.1.7:9090,http://10.0.1.8:9090
//	frontd -shards http://a:9090,http://b:9090,http://c:9090 \
//	    -admit-max 4096 -shard-inflight 512
//
//	curl -s localhost:9900/healthz
//	curl -s -X POST localhost:9900/v1/batch -d '{
//	  "requests": [
//	    {"algorithm": "lpt-norestriction",
//	     "instance": {"m": 4, "alpha": 1.5, "estimates": [5,3,8,2,7,4]}}
//	  ]
//	}'
//
// Streaming: POST /v1/stream takes newline-delimited schedule requests
// and emits one NDJSON result line per item in input order; items
// beyond the admission cap are shed with an in-band error line rather
// than buffered.
//
// The daemon drains in-flight work on SIGINT/SIGTERM (bounded by
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

	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", ":9900", "listen address")
		shards      = flag.String("shards", "", "comma-separated clusterd base URLs (required)")
		vnodes      = flag.Int("vnodes", 64, "virtual nodes per shard on the hash ring")
		workers     = flag.Int("workers", 0, "batch fan-out workers (0 = 2*GOMAXPROCS)")
		admitMax    = flag.Int("admit-max", 1024, "global admission cap (items in flight)")
		shardCap    = flag.Int("shard-inflight", 256, "per-shard in-flight item cap (0 or negative: 256; -no-shed disables)")
		noShed      = flag.Bool("no-shed", false, "disable admission control entirely")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-batch deadline")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		maxBody     = flag.Int64("max-body", 8<<20, "request body size cap in bytes")
		maxTasks    = flag.Int("max-tasks", 100000, "per-instance task cap")
		maxMachines = flag.Int("max-machines", 10000, "per-instance machine cap")
		maxBatch    = flag.Int("max-batch", 256, "items per /v1/batch request")
		maxStream   = flag.Int("max-stream-items", 10000, "items per /v1/stream request")
		streamTime  = flag.Duration("stream-timeout", 5*time.Minute, "per-stream deadline")
		failThresh  = flag.Int("fail-threshold", 3, "consecutive failures that mark a shard dead")
		failBase    = flag.Duration("fail-base", 100*time.Millisecond, "first dead-shard window")
		failMax     = flag.Duration("fail-max", 5*time.Second, "dead-shard backoff cap")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "shard /healthz probe spacing")
		retryCap    = flag.Duration("retry-after-cap", 2*time.Second, "longest honored 429 Retry-After")
		statsFlag   = flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	)
	flag.Parse()

	if *shards == "" {
		fmt.Fprintln(os.Stderr, "frontd: -shards is required")
		os.Exit(2)
	}
	cfg := front.Config{
		Shards:          wire.SplitURLs(*shards),
		VNodes:          *vnodes,
		Workers:         *workers,
		AdmitMax:        *admitMax,
		ShardInflight:   *shardCap,
		DisableShedding: *noShed,
		RetryAfterHint:  *retryAfter,
		MaxBatch:        *maxBatch,
		MaxStreamItems:  *maxStream,
		StreamTimeout:   *streamTime,
		MaxTasks:        *maxTasks,
		MaxMachines:     *maxMachines,
		MaxBodyBytes:    *maxBody,
		RequestTimeout:  *timeout,
		FailThreshold:   *failThresh,
		FailBaseBackoff: *failBase,
		FailMaxBackoff:  *failMax,
		ProbeInterval:   *probeEvery,
		RetryAfterCap:   *retryCap,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, *addr, cfg, *drain, nil)
	if *statsFlag {
		fmt.Fprintln(os.Stderr, "--- frontd internal stats ---")
		if werr := obs.Write(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "frontd: stats:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontd:", err)
		os.Exit(1)
	}
}

// run is the daemon minus flags and signals: build the tier, probe its
// upstreams, and serve until ctx is cancelled, then drain in-flight
// work for at most drain (see wire.ServeUntil for ready).
func run(ctx context.Context, addr string, cfg front.Config, drain time.Duration, ready chan<- net.Addr) error {
	f, err := front.New(cfg)
	if err != nil {
		return err
	}
	f.Start(ctx)
	defer f.Close()
	return wire.ServeUntil(ctx, addr, f.Handler(), drain, ready)
}
